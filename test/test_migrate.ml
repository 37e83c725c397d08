(* Live domain migration (Distributed.Migrate): a sealed enclave ships
   between two fleet endpoints as content-addressed chunks, adoption is
   attestation-bound and fsck-verified, commit leaves a remote proxy
   behind and re-homes fleet delegations, abort thaws with no observable
   mutation, either endpoint resumes mid-protocol from its journal, and
   the migration frames round-trip and reject every single-byte tamper
   under the fleet MAC. *)

open Testkit

let os = Tyche.Domain.initial
let key = "migrate-session-key-0123456789ab"
let page = Hw.Addr.page_size
let range ~base ~len = Hw.Addr.Range.make ~base ~len

let mok ?(msg = "migrate op") = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" msg (Distributed.Migrate.error_to_string e)

let fok ?(msg = "fleet op") = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" msg (Distributed.Fleet.error_to_string e)

let counter name =
  Option.value ~default:0 (List.assoc_opt name (Obs.Metrics.counters ()))

type node = {
  name : string;
  mutable w : Testkit.world;
  mutable fleet : Distributed.Fleet.t;
  mutable mig : Distributed.Migrate.t;
  store : Persist.Store.t;
}

let mk_node net name seed =
  let w = boot_x86 ~seed () in
  let store = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence w.Testkit.monitor ~store ();
  let fleet = Distributed.Fleet.create ~store ~monitor:w.Testkit.monitor ~name ~net () in
  let mig = Distributed.Migrate.attach ~fleet ~store () in
  { name; w; fleet; mig; store }

(* Sessions and peer attestation roots are both volatile: (re)establish
   them together, in both directions. *)
let link a b =
  ignore (fok (Distributed.Fleet.connect a.fleet ~peer:b.name ~key));
  ignore (fok (Distributed.Fleet.connect b.fleet ~peer:a.name ~key));
  Distributed.Migrate.set_peer_root a.mig ~peer:b.name
    (Tyche.Monitor.attestation_root b.w.Testkit.monitor);
  Distributed.Migrate.set_peer_root b.mig ~peer:a.name
    (Tyche.Monitor.attestation_root a.w.Testkit.monitor)

let mk_pair () =
  let net = Distributed.Network.create () in
  let a = mk_node net "alpha" 0x81L in
  let b = mk_node net "beta" 0x82L in
  link a b;
  (net, a, b)

let step nodes =
  List.iter (fun n -> Distributed.Fleet.tick n.fleet) nodes;
  List.iter (fun n -> ignore (Distributed.Fleet.poll n.fleet)) nodes;
  List.iter (fun n -> Distributed.Migrate.tick n.mig) nodes

let pump ?(rounds = 400) nodes =
  let idle () =
    List.for_all
      (fun n -> Distributed.Fleet.idle n.fleet && Distributed.Migrate.idle n.mig)
      nodes
  in
  let r = ref 0 in
  while (not (idle ())) && !r < rounds do
    incr r;
    step nodes
  done;
  if not (idle ()) then begin
    List.iter
      (fun n ->
        List.iter
          (fun (id, role, ph) ->
            Printf.eprintf "  %s %s %s: %s\n" n.name id
              (match role with Distributed.Migrate.Source -> "src" | _ -> "tgt")
              (Format.asprintf "%a" Distributed.Migrate.pp_phase ph))
          (Distributed.Migrate.migrations n.mig))
      nodes;
    Alcotest.failf "no convergence within %d rounds" rounds
  end

(* Crash-restart one endpoint: power fails (unsynced writes lost), then
   a fresh machine recovers the monitor from the store, the fleet from
   its journal, and the migration engine from its journal. *)
let crash_recover net node =
  Persist.Store.power_fail node.store;
  let machine =
    Hw.Machine.create ~arch:Hw.Cpu.X86_64 ~cores:4 ~mem_size:(16 * 1024 * 1024) ()
  in
  let rng = Crypto.Rng.create ~seed:0x99L in
  let tpm = Rot.Tpm.create rng in
  let br =
    Rot.Boot.measured_boot tpm machine ~firmware:Testkit.firmware
      ~loader:Testkit.loader_blob ~monitor_image:Testkit.monitor_image
  in
  let backend = Backend_x86.create machine () in
  match
    Tyche.Monitor.recover machine ~store:node.store ~backend ~tpm ~rng
      ~monitor_range:br.Rot.Boot.monitor_range
  with
  | Error e -> Alcotest.failf "%s: recovery failed: %s" node.name e
  | Ok (m, _) ->
    node.w <- { node.w with Testkit.monitor = m; machine; backend };
    node.fleet <-
      Distributed.Fleet.create ~store:node.store ~monitor:m ~name:node.name ~net ();
    node.mig <- Distributed.Migrate.attach ~fleet:node.fleet ~store:node.store ()

(* A sealed enclave with [pages] private pages at [base]; the first
   half carry content, the rest stay zero (so content-addressing has
   something to dedup). *)
let build_enclave ?(pages = 6) ?(name = "traveller") ?(core = 0) node ~base =
  let m = node.w.Testkit.monitor in
  let d =
    get_ok (Tyche.Monitor.create_domain m ~caller:os ~name ~kind:Tyche.Domain.Enclave)
  in
  let sub = range ~base ~len:(pages * page) in
  let piece =
    get_ok (Tyche.Monitor.carve m ~caller:os ~cap:(os_memory_cap node.w) ~subrange:sub)
  in
  for i = 0 to (pages / 2) - 1 do
    get_ok
      (Tyche.Monitor.store_string m ~core:0 (base + (i * page))
         (Printf.sprintf "%s-page-%04d" name i))
  done;
  let granted =
    get_ok
      (Tyche.Monitor.grant m ~caller:os ~cap:piece ~to_:d ~rights:Cap.Rights.full
         ~cleanup:Cap.Revocation.Zero_and_flush)
  in
  ignore
    (get_ok
       (Tyche.Monitor.share m ~caller:os ~cap:(os_core_cap node.w core) ~to_:d
          ~rights:Cap.Rights.exclusive_use ~cleanup:Cap.Revocation.Keep ()));
  get_ok (Tyche.Monitor.set_entry_point m ~caller:os ~domain:d base);
  get_ok (Tyche.Monitor.mark_measured m ~caller:os ~domain:d sub);
  get_ok (Tyche.Monitor.seal m ~caller:os ~domain:d);
  (d, sub, granted)

let check_clean node =
  check_no_violations node.w.Testkit.monitor;
  let fr = Tyche.Fsck.check node.w.Testkit.monitor in
  if not (Tyche.Fsck.ok fr) then
    Alcotest.failf "%s fsck: %s" node.name (Format.asprintf "%a" Tyche.Fsck.pp fr)

let mem_of node = (Tyche.Monitor.machine node.w.Testkit.monitor).Hw.Machine.mem

let find_by_name node name =
  List.find_opt
    (fun d -> Tyche.Domain.name d = name)
    (Tyche.Monitor.domains node.w.Testkit.monitor)

(* --- the happy path ---------------------------------------------------- *)

let test_migrate_happy_path () =
  let _net, a, b = mk_pair () in
  let base = 0x40000 in
  let d, sub, _ = build_enclave a ~base ~pages:6 in
  let before = Hw.Physmem.read (mem_of a) sub in
  let mig = mok (Distributed.Migrate.start a.mig ~domain:d ~peer:"beta") in
  pump [ a; b ];
  (* Source side: committed, domain gone, proxy in its place. *)
  (match Distributed.Migrate.status a.mig ~mig with
  | Some (Distributed.Migrate.Source, Distributed.Migrate.Committed) -> ()
  | s ->
    Alcotest.failf "source phase: %s"
      (match s with
      | Some (_, p) -> Format.asprintf "%a" Distributed.Migrate.pp_phase p
      | None -> "missing"));
  Alcotest.(check bool) "original domain destroyed" true
    (Tyche.Monitor.find_domain a.w.Testkit.monitor d = None);
  let proxy = Option.get (Distributed.Migrate.proxy_domain a.mig ~mig) in
  let pd = Option.get (Tyche.Monitor.find_domain a.w.Testkit.monitor proxy) in
  Alcotest.(check string) "proxy name" "remote:beta:traveller" (Tyche.Domain.name pd);
  (match Tyche.Domain.kind pd with
  | Tyche.Domain.Remote -> ()
  | k -> Alcotest.failf "proxy kind %s" (Tyche.Domain.kind_to_string k));
  (* Target side: live, sealed, thawed, content intact. *)
  (match Distributed.Migrate.status b.mig ~mig with
  | Some (Distributed.Migrate.Target, Distributed.Migrate.Live) -> ()
  | _ -> Alcotest.fail "target not live");
  let ad = Option.get (Distributed.Migrate.adopted_domain b.mig ~mig) in
  let dom = Option.get (Tyche.Monitor.find_domain b.w.Testkit.monitor ad) in
  Alcotest.(check string) "name survives" "traveller" (Tyche.Domain.name dom);
  Alcotest.(check bool) "sealed" true (Tyche.Domain.is_sealed dom);
  Alcotest.(check bool) "thawed" false
    (Tyche.Monitor.domain_frozen b.w.Testkit.monitor ~domain:ad);
  Alcotest.(check string) "memory content transferred" before
    (Hw.Physmem.read (mem_of b) sub);
  Alcotest.(check bool) "entry point survives" true
    (Tyche.Domain.entry_point dom = Some base);
  (* Zero pages collapsed: 6 pages, 3 written distinct + 3 zero = 4 chunks. *)
  Alcotest.(check int) "zero pages dedup to one chunk" 4
    (Distributed.Migrate.chunk_count b.mig);
  (* The receipt chain verifies on the target. *)
  Alcotest.(check bool) "receipt verifies" true
    (Distributed.Migrate.verify_receipt b.mig ~mig);
  check_clean a;
  check_clean b

(* --- admission --------------------------------------------------------- *)

let test_admission_refusals () =
  let _net, a, b = mk_pair () in
  (* Unsealed domains don't migrate. *)
  let loose =
    get_ok
      (Tyche.Monitor.create_domain a.w.Testkit.monitor ~caller:os ~name:"loose"
         ~kind:Tyche.Domain.Sandbox)
  in
  (match Distributed.Migrate.start a.mig ~domain:loose ~peer:"beta" with
  | Error (Distributed.Migrate.Refused _) -> ()
  | _ -> Alcotest.fail "unsealed domain admitted");
  (* Domain 0 doesn't migrate. *)
  (match Distributed.Migrate.start a.mig ~domain:os ~peer:"beta" with
  | Error (Distributed.Migrate.Refused _) -> ()
  | _ -> Alcotest.fail "domain 0 admitted");
  (* Memory shared with a local domain doesn't migrate. *)
  let d, _, granted = build_enclave a ~base:0x40000 ~name:"shared" in
  let sbx =
    get_ok
      (Tyche.Monitor.create_domain a.w.Testkit.monitor ~caller:os ~name:"sbx"
         ~kind:Tyche.Domain.Sandbox)
  in
  ignore
    (get_ok
       (Tyche.Monitor.share a.w.Testkit.monitor ~caller:d ~cap:granted ~to_:sbx
          ~rights:Cap.Rights.read_only ~cleanup:Cap.Revocation.Keep ()));
  (match Distributed.Migrate.start a.mig ~domain:d ~peer:"beta" with
  | Error (Distributed.Migrate.Refused _) -> ()
  | _ -> Alcotest.fail "locally-shared domain admitted");
  (* A migrating (frozen) domain can't be double-started. *)
  let d2, _, _ = build_enclave a ~base:0x60000 ~name:"solo" ~core:1 in
  let _mig = mok (Distributed.Migrate.start a.mig ~domain:d2 ~peer:"beta") in
  (match Distributed.Migrate.start a.mig ~domain:d2 ~peer:"beta" with
  | Error (Distributed.Migrate.Refused _) -> ()
  | _ -> Alcotest.fail "double start admitted");
  ignore b

(* --- abort ------------------------------------------------------------- *)

let test_abort_thaws_unchanged () =
  let net, a, b = mk_pair () in
  let d, _, _ = build_enclave a ~base:0x40000 in
  let m = a.w.Testkit.monitor in
  let fingerprint () =
    let atts =
      get_ok (Tyche.Monitor.attest_batch m ~caller:os ~domains:[ d ] ~nonce:"abort-probe")
    in
    Tyche.Attestation.payload (List.hd atts)
  in
  let before = fingerprint () in
  (* Cut the wire so the transfer stalls mid-stream, then abort. *)
  Distributed.Network.partition net "alpha" "beta";
  let mig = mok (Distributed.Migrate.start a.mig ~domain:d ~peer:"beta") in
  for _ = 1 to 3 do
    step [ a; b ]
  done;
  Alcotest.(check bool) "frozen mid-transfer" true
    (Tyche.Monitor.domain_frozen m ~domain:d);
  mok (Distributed.Migrate.abort a.mig ~mig ~reason:"operator says no");
  Alcotest.(check bool) "thawed after abort" false
    (Tyche.Monitor.domain_frozen m ~domain:d);
  Alcotest.(check string) "attestation unchanged by the round trip" before (fingerprint ());
  (match Distributed.Migrate.status a.mig ~mig with
  | Some (_, Distributed.Migrate.Aborted _) -> ()
  | _ -> Alcotest.fail "source not aborted");
  (* Heal; the peer is notified and winds down too. *)
  Distributed.Network.heal net "alpha" "beta";
  pump [ a; b ];
  (match Distributed.Migrate.status b.mig ~mig with
  | Some (_, Distributed.Migrate.Aborted _) | None -> ()
  | _ -> Alcotest.fail "target kept a half-adopted copy");
  Alcotest.(check bool) "no copy on beta" true (find_by_name b "traveller" = None);
  check_clean a;
  check_clean b

(* --- revocation racing a migration ------------------------------------- *)

(* [Fleet.revoke] aimed at the migrating domain's memory at every
   interleaving depth of the migration protocol. The acceptable
   outcomes are narrow: the revocation is refused cleanly (the
   migration freeze holds the capability), or the world converges to a
   consistent committed/aborted state — and in no interleaving may the
   domain end up a frozen orphan on either endpoint. *)
let test_revoke_races_migration () =
  List.iter
    (fun k ->
      let _net, a, b = mk_pair () in
      let d, _, granted = build_enclave a ~base:0x40000 ~name:"racer" in
      let mig = mok (Distributed.Migrate.start a.mig ~domain:d ~peer:"beta") in
      for _ = 1 to k do
        step [ a; b ]
      done;
      (* The race: revoke the enclave's memory mid-protocol. Both
         answers are legal; a crash or inconsistency is not. *)
      let revoke_outcome = Distributed.Fleet.revoke a.fleet ~caller:os ~cap:granted in
      pump [ a; b ];
      List.iter
        (fun node ->
          List.iter
            (fun dom ->
              let id = Tyche.Domain.id dom in
              if Tyche.Monitor.domain_frozen node.w.Testkit.monitor ~domain:id then
                Alcotest.failf "k=%d: domain %d (%s) left frozen on %s" k id
                  (Tyche.Domain.name dom) node.name)
            (Tyche.Monitor.domains node.w.Testkit.monitor))
        [ a; b ];
      check_clean a;
      check_clean b;
      (* The domain lives in exactly one consistent place. *)
      let live_on_b = find_by_name b "racer" <> None in
      (match Distributed.Migrate.status a.mig ~mig with
      | Some (_, Distributed.Migrate.Committed) ->
        if not live_on_b then Alcotest.failf "k=%d: committed but no copy on beta" k;
        (match find_by_name a "racer" with
        | Some proxy ->
          if Tyche.Domain.kind proxy <> Tyche.Domain.Remote then
            Alcotest.failf "k=%d: committed but source copy is not a proxy" k
        | None -> ())
      | Some (_, Distributed.Migrate.Aborted _) ->
        (match find_by_name a "racer" with
        | Some home ->
          if Tyche.Domain.kind home = Tyche.Domain.Remote then
            Alcotest.failf "k=%d: aborted but the home copy became a proxy" k
        | None -> Alcotest.failf "k=%d: aborted and the domain is gone" k);
        if live_on_b then Alcotest.failf "k=%d: aborted but a copy lives on beta" k
      | Some (_, ph) ->
        Alcotest.failf "k=%d: source not terminal after convergence: %s" k
          (Format.asprintf "%a" Distributed.Migrate.pp_phase ph)
      | None -> Alcotest.failf "k=%d: migration vanished from the source" k);
      (* If the revocation was accepted, the memory must actually be
         revoked wherever the domain ended up; if refused, the grant
         must still be intact. Either way fsck above already vouches
         for tree/hardware agreement — here we just pin the outcome
         classes. *)
      match revoke_outcome with
      | Ok () | Error _ -> ())
    [ 0; 1; 2; 3; 5; 8; 13 ]

let test_source_crash_resumes_with_dedup () =
  let net, a, b = mk_pair () in
  let d, sub, _ = build_enclave a ~base:0x40000 ~pages:6 in
  let before = Hw.Physmem.read (mem_of a) sub in
  let mig = mok (Distributed.Migrate.start a.mig ~domain:d ~peer:"beta") in
  (* Let some chunks land durably on beta, then pull alpha's plug. *)
  for _ = 1 to 3 do
    step [ a; b ]
  done;
  let banked = Distributed.Migrate.chunk_count b.mig in
  Alcotest.(check bool) "some chunks banked before the crash" true (banked > 0);
  let rx0 = counter "migrate.chunks_rx" in
  crash_recover net a;
  link a b;
  pump [ a; b ];
  (* Same migration id, carried to commit by the resumed source. *)
  (match Distributed.Migrate.status a.mig ~mig with
  | Some (Distributed.Migrate.Source, Distributed.Migrate.Committed) -> ()
  | _ -> Alcotest.fail "resumed source did not commit");
  (match Distributed.Migrate.status b.mig ~mig with
  | Some (Distributed.Migrate.Target, Distributed.Migrate.Live) -> ()
  | _ -> Alcotest.fail "target not live after resume");
  let ad = Option.get (Distributed.Migrate.adopted_domain b.mig ~mig) in
  Alcotest.(check string) "content intact across the resume" before
    (Hw.Physmem.read (mem_of b) sub);
  (* The parked target committed its banked copy without any re-stream:
     the crash zeroed alpha's volatile pages, so the pre-crash content
     survives only in beta's journal. *)
  Alcotest.(check int) "parked copy committed without re-streaming" rx0
    (counter "migrate.chunks_rx");
  Alcotest.(check bool) "thawed" false
    (Tyche.Monitor.domain_frozen b.w.Testkit.monitor ~domain:ad);
  Alcotest.(check bool) "proxy on alpha" true
    (Distributed.Migrate.proxy_domain a.mig ~mig <> None);
  check_clean a;
  check_clean b

let test_target_crash_resumes () =
  let net, a, b = mk_pair () in
  let d, sub, _ = build_enclave a ~base:0x40000 ~pages:6 in
  let before = Hw.Physmem.read (mem_of a) sub in
  let mig = mok (Distributed.Migrate.start a.mig ~domain:d ~peer:"beta") in
  for _ = 1 to 3 do
    step [ a; b ]
  done;
  crash_recover net b;
  link a b;
  pump [ a; b ];
  (match Distributed.Migrate.status b.mig ~mig with
  | Some (Distributed.Migrate.Target, Distributed.Migrate.Live) -> ()
  | _ -> Alcotest.fail "target not live after its own crash");
  Alcotest.(check string) "content intact across the target crash" before
    (Hw.Physmem.read (mem_of b) sub);
  Alcotest.(check bool) "exactly one live copy" true
    (Tyche.Monitor.find_domain a.w.Testkit.monitor d = None
    && find_by_name b "traveller" <> None);
  check_clean a;
  check_clean b

let test_receipt_survives_target_restart () =
  let net, a, b = mk_pair () in
  let d, _, _ = build_enclave a ~base:0x40000 in
  let mig = mok (Distributed.Migrate.start a.mig ~domain:d ~peer:"beta") in
  pump [ a; b ];
  Alcotest.(check bool) "receipt verifies while live" true
    (Distributed.Migrate.verify_receipt b.mig ~mig);
  (* Restart the new host: the receipt chain must still verify against
     the recovered domain and the journaled manifest. *)
  crash_recover net b;
  link a b;
  pump [ a; b ];
  (match Distributed.Migrate.receipt b.mig ~mig with
  | Some rc ->
    Alcotest.(check string) "receipt origin" "alpha" rc.Distributed.Migrate.rc_origin
  | None -> Alcotest.fail "receipt lost across restart");
  Alcotest.(check bool) "receipt verifies after restart" true
    (Distributed.Migrate.verify_receipt b.mig ~mig);
  check_clean b

(* --- delegation re-homing (three machines) ----------------------------- *)

let test_rehoming_flips_import_origin () =
  let net = Distributed.Network.create () in
  let a = mk_node net "alpha" 0x81L in
  let b = mk_node net "beta" 0x82L in
  let g = mk_node net "gamma" 0x83L in
  link a b;
  link a g;
  link b g;
  let base = 0x40000 in
  let d, _, granted = build_enclave a ~pages:2 ~base in
  (* The enclave delegates its first page to gamma. *)
  let dsub = range ~base ~len:page in
  let del_id =
    fok
      (Distributed.Fleet.delegate a.fleet ~caller:d ~cap:granted ~peer:"gamma"
         ~subrange:dsub ~rights:Cap.Rights.read_only ())
  in
  pump [ a; b; g ];
  (match Distributed.Fleet.imports g.fleet with
  | [ i ] -> Alcotest.(check string) "import from alpha" "alpha" i.Distributed.Fleet.imp_origin
  | l -> Alcotest.failf "expected 1 import, got %d" (List.length l));
  (* Migrate the delegating domain to beta. *)
  let mig = mok (Distributed.Migrate.start a.mig ~domain:d ~peer:"beta") in
  pump [ a; b; g ];
  (match Distributed.Migrate.status a.mig ~mig with
  | Some (_, Distributed.Migrate.Committed) -> ()
  | _ -> Alcotest.fail "migration did not commit");
  (* Gamma's import re-homed: same range and rights, new origin. *)
  (match Distributed.Fleet.imports g.fleet with
  | [ i ] ->
    Alcotest.(check string) "import origin flipped to beta" "beta"
      i.Distributed.Fleet.imp_origin;
    Alcotest.(check int) "same base" base i.Distributed.Fleet.imp_base;
    Alcotest.(check int) "same len" page i.Distributed.Fleet.imp_len
  | l -> Alcotest.failf "expected exactly 1 import after re-homing, got %d" (List.length l));
  (* Alpha's old delegation is retired; beta carries the live one. *)
  List.iter
    (fun (dl : Distributed.Fleet.delegation) ->
      if dl.Distributed.Fleet.del_id = del_id && dl.Distributed.Fleet.del_state <> Distributed.Fleet.Revoked
      then Alcotest.fail "alpha's delegation survived the commit")
    (Distributed.Fleet.delegations a.fleet);
  (match
     List.filter
       (fun (dl : Distributed.Fleet.delegation) ->
         dl.Distributed.Fleet.del_state = Distributed.Fleet.Active)
       (Distributed.Fleet.delegations b.fleet)
   with
  | [ dl ] ->
    Alcotest.(check string) "beta delegates to gamma" "gamma" dl.Distributed.Fleet.del_peer;
    Alcotest.(check int) "re-homed base" base dl.Distributed.Fleet.del_base
  | l -> Alcotest.failf "expected 1 active delegation on beta, got %d" (List.length l));
  (* The re-homed holder shows in beta's attestation like any other. *)
  let ad = Option.get (Distributed.Migrate.adopted_domain b.mig ~mig) in
  let tree = Tyche.Monitor.tree b.w.Testkit.monitor in
  let holders = Cap.Captree.holders tree (Cap.Resource.Memory dsub) in
  Alcotest.(check bool) "adopted domain holds its page" true (List.mem ad holders);
  Alcotest.(check bool) "gamma's proxy holds the page" true
    (match Distributed.Fleet.proxy b.fleet ~peer:"gamma" with
    | Some p -> List.mem p holders
    | None -> false);
  List.iter check_clean [ a; b; g ]

(* --- differential: migrated vs never-migrated -------------------------- *)

(* The same op trace probed against the migrated domain on its new host
   and against an identical domain that never moved must answer
   identically — API responses and the attestation-verifiable state
   (everything in the attestation body that is not a machine-local
   identifier). *)
let probe m domain =
  let buf = Buffer.create 256 in
  let dom = Option.get (Tyche.Monitor.find_domain m domain) in
  Buffer.add_string buf (Tyche.Domain.name dom);
  Buffer.add_string buf (Tyche.Domain.kind_to_string (Tyche.Domain.kind dom));
  Buffer.add_string buf (Printf.sprintf "sealed=%b" (Tyche.Domain.is_sealed dom));
  Buffer.add_string buf
    (Printf.sprintf "entry=%d" (Option.value ~default:(-1) (Tyche.Domain.entry_point dom)));
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "measured[%d,+%d]" (Hw.Addr.Range.base r) (Hw.Addr.Range.len r)))
    (Tyche.Domain.measured_ranges dom);
  (* API responses, including the refusals. *)
  (match Tyche.Monitor.load_string m ~core:0 (range ~base:0x40000 ~len:8) with
  | Ok s -> Buffer.add_string buf ("load:" ^ s)
  | Error e -> Buffer.add_string buf ("load-err:" ^ Tyche.Monitor.error_to_string e));
  (match Tyche.Monitor.attest_batch m ~caller:os ~domains:[ domain ] ~nonce:"diff" with
  | Error e -> Buffer.add_string buf ("att-err:" ^ Tyche.Monitor.error_to_string e)
  | Ok atts ->
    let a = List.hd atts in
    Buffer.add_string buf
      (Printf.sprintf "att:%s kind=%s sealed=%b meas=%s cores=%d devs=%d enc=%b"
         a.Tyche.Attestation.domain_name
         (Tyche.Domain.kind_to_string a.Tyche.Attestation.kind)
         a.Tyche.Attestation.sealed
         (match a.Tyche.Attestation.measurement with
         | Some d -> Crypto.Sha256.to_hex d
         | None -> "-")
         (List.length a.Tyche.Attestation.cores)
         (List.length a.Tyche.Attestation.devices)
         a.Tyche.Attestation.memory_encrypted);
    List.iter
      (fun (r : Tyche.Attestation.region_report) ->
        Buffer.add_string buf
          (Printf.sprintf "region[%d,+%d]rc=%d h=%d m=%b"
             (Hw.Addr.Range.base r.Tyche.Attestation.range)
             (Hw.Addr.Range.len r.Tyche.Attestation.range)
             r.Tyche.Attestation.refcount
             (List.length r.Tyche.Attestation.holders)
             r.Tyche.Attestation.measured))
      a.Tyche.Attestation.regions);
  Buffer.contents buf

let test_differential_migrated_vs_replay () =
  (* World 1: build, migrate mid-workload, probe on the new host. Cores
     are machine-local and do not migrate, so neither enclave gets one
     (the probes must stay comparable). *)
  let _net, a, b = mk_pair () in
  let m = a.w.Testkit.monitor in
  let d =
    get_ok (Tyche.Monitor.create_domain m ~caller:os ~name:"diff" ~kind:Tyche.Domain.Enclave)
  in
  let sub = range ~base:0x40000 ~len:(2 * page) in
  let piece = get_ok (Tyche.Monitor.carve m ~caller:os ~cap:(os_memory_cap a.w) ~subrange:sub) in
  get_ok (Tyche.Monitor.store_string m ~core:0 0x40000 "DIFFERENTIAL");
  ignore
    (get_ok
       (Tyche.Monitor.grant m ~caller:os ~cap:piece ~to_:d ~rights:Cap.Rights.full
          ~cleanup:Cap.Revocation.Zero));
  get_ok (Tyche.Monitor.set_entry_point m ~caller:os ~domain:d 0x40000);
  get_ok (Tyche.Monitor.mark_measured m ~caller:os ~domain:d sub);
  get_ok (Tyche.Monitor.seal m ~caller:os ~domain:d);
  let pre_migrated = probe m d in
  let mig = mok (Distributed.Migrate.start a.mig ~domain:d ~peer:"beta") in
  pump [ a; b ];
  let ad = Option.get (Distributed.Migrate.adopted_domain b.mig ~mig) in
  let post_migrated = probe b.w.Testkit.monitor ad in
  (* World 2: identical trace, no migration. *)
  let w2 = boot_x86 ~seed:0x91L () in
  let m2 = w2.Testkit.monitor in
  let d2 =
    get_ok (Tyche.Monitor.create_domain m2 ~caller:os ~name:"diff" ~kind:Tyche.Domain.Enclave)
  in
  let piece2 =
    get_ok (Tyche.Monitor.carve m2 ~caller:os ~cap:(os_memory_cap w2) ~subrange:sub)
  in
  get_ok (Tyche.Monitor.store_string m2 ~core:0 0x40000 "DIFFERENTIAL");
  ignore
    (get_ok
       (Tyche.Monitor.grant m2 ~caller:os ~cap:piece2 ~to_:d2 ~rights:Cap.Rights.full
          ~cleanup:Cap.Revocation.Zero));
  get_ok (Tyche.Monitor.set_entry_point m2 ~caller:os ~domain:d2 0x40000);
  get_ok (Tyche.Monitor.mark_measured m2 ~caller:os ~domain:d2 sub);
  get_ok (Tyche.Monitor.seal m2 ~caller:os ~domain:d2);
  let control = probe m2 d2 in
  Alcotest.(check string) "pre-migration state matches the control" control pre_migrated;
  Alcotest.(check string) "migrated state matches the unmigrated replay" control
    post_migrated

(* --- wire properties (qcheck) ------------------------------------------ *)

let gen_digest = QCheck.Gen.(string_size (return 32))
let gen_mig_id = QCheck.Gen.(string_size ~gen:printable (int_range 1 16))

let gen_manifest st =
  let open QCheck.Gen in
  let small g = list_size (int_range 0 3) g st in
  { Distributed.Migrate.Wire.mf_name = string_size ~gen:printable (int_range 1 12) st;
    mf_kind = int_range 0 5 st;
    mf_entry = (if bool st then -1 else int_range 0 0xFFFFF st);
    mf_flush = bool st;
    mf_measurement = gen_digest st;
    mf_caps =
      small (fun st ->
          (int_range 0 0xFFFFF st, int_range 1 0xFFFF st, int_range 0 31 st,
           int_range 0 3 st));
    mf_measured = small (fun st -> (int_range 0 0xFFFFF st, int_range 1 0xFFFF st));
    mf_pages =
      small (fun st -> (int_range 0 0xFFFFF st, int_range 1 4096 st, gen_digest st));
    mf_dels =
      small (fun st ->
          (string_size ~gen:printable (int_range 1 8) st, int_range 0 0xFFFFF st,
           int_range 1 0xFFFF st, int_range 0 31 st));
    mf_att = string_size (int_range 0 64) st;
    mf_root = gen_digest st;
    mf_state = gen_digest st;
    mf_image = gen_digest st }

let gen_frame =
  let open QCheck.Gen in
  let open Distributed.Migrate.Wire in
  oneof
    [ (fun st ->
        Offer { mig = gen_mig_id st; hashes = list_size (int_range 0 4) gen_digest st });
      (fun st ->
        Need { mig = gen_mig_id st; hashes = list_size (int_range 0 4) gen_digest st });
      (fun st ->
        Chunk
          { mig = gen_mig_id st; hash = gen_digest st;
            bytes = string_size (int_range 0 256) st });
      (fun st -> Chunk_ack { mig = gen_mig_id st; hash = gen_digest st });
      (fun st -> Final { mig = gen_mig_id st; manifest = gen_manifest st });
      (fun st -> Receipt { mig = gen_mig_id st; image = gen_digest st });
      (fun st -> Commit { mig = gen_mig_id st });
      (fun st ->
        Abort
          { mig = gen_mig_id st;
            reason = string_size ~gen:printable (int_range 0 24) st }) ]

let print_frame f = Printf.sprintf "%S" (Distributed.Migrate.Wire.encode_frame f)
let arb_frame = QCheck.make ~print:print_frame gen_frame

let prop_frame_roundtrip =
  QCheck.Test.make ~name:"migrate wire: frame encode/decode round-trips" ~count:500
    arb_frame (fun f ->
      match Distributed.Migrate.Wire.decode_frame (Distributed.Migrate.Wire.encode_frame f) with
      | Ok f' -> f = f'
      | Error _ -> false)

let prop_manifest_roundtrip =
  QCheck.Test.make ~name:"migrate wire: manifest encode/decode round-trips" ~count:300
    (QCheck.make gen_manifest) (fun mf ->
      match
        Distributed.Migrate.Wire.decode_manifest
          (Distributed.Migrate.Wire.encode_manifest mf)
      with
      | Ok mf' -> mf = mf'
      | Error _ -> false)

let prop_truncation =
  QCheck.Test.make ~name:"migrate wire: every truncation is rejected" ~count:60 arb_frame
    (fun f ->
      let s = Distributed.Migrate.Wire.encode_frame f in
      let ok = ref true in
      for i = 0 to String.length s - 1 do
        match Distributed.Migrate.Wire.decode_frame (String.sub s 0 i) with
        | Ok _ -> ok := false
        | Error _ -> ()
      done;
      !ok)

(* A manifest naming an unknown cleanup code or rights bits is malformed:
   the decoder refuses it rather than mapping the code to some policy. *)
let test_manifest_bad_codes_rejected () =
  let mf = gen_manifest (Random.State.make [| 7 |]) in
  let with_caps caps = { mf with Distributed.Migrate.Wire.mf_caps = caps } in
  List.iter
    (fun (what, mf) ->
      match
        Distributed.Migrate.Wire.decode_manifest (Distributed.Migrate.Wire.encode_manifest mf)
      with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "manifest with %s accepted" what)
    [ ("cleanup code 4", with_caps [ (0, 4096, 7, 4) ]);
      ("rights bit 5", with_caps [ (0, 4096, 0x20, 0) ]);
      ("delegation rights bit 5",
       { (with_caps []) with Distributed.Migrate.Wire.mf_dels = [ ("peer", 0, 4096, 0x40) ] }) ]

(* The migration frames ride the fleet data plane, so tampering is the
   fleet MAC's problem: flip every byte of the sealed datagram and the
   wire must reject each one — same discipline as the fleet's own
   tamper property. *)
let prop_tamper =
  QCheck.Test.make ~name:"migrate wire: every single-byte flip is rejected" ~count:20
    arb_frame (fun f ->
      let key = "migrate-tamper-key" in
      let body =
        Distributed.Fleet.Wire.encode_body ~origin:"alpha" ~seq:7
          (Distributed.Fleet.Wire.Data
             { chan = "migrate"; payload = Distributed.Migrate.Wire.encode_frame f })
      in
      let raw = Distributed.Fleet.Wire.seal ~key body in
      let ok = ref true in
      for i = 0 to String.length raw - 1 do
        let forged =
          String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 0x01) else c) raw
        in
        let accepted =
          match Distributed.Fleet.Wire.split_datagram forged with
          | Error _ -> false
          | Ok (fbody, fmac) -> (
            match Distributed.Fleet.Wire.decode_body fbody with
            | Error _ -> false
            | Ok _ -> Distributed.Fleet.Wire.verify ~key ~body:fbody ~mac:fmac)
        in
        if accepted then ok := false
      done;
      !ok)

let () =
  Alcotest.run "migrate"
    [ ( "protocol",
        [ Alcotest.test_case "happy path: stream, adopt, commit, proxy" `Quick
            test_migrate_happy_path;
          Alcotest.test_case "admission refusals" `Quick test_admission_refusals;
          Alcotest.test_case "revoke racing migration: clean abort or re-homing" `Quick
            test_revoke_races_migration;
          Alcotest.test_case "abort thaws with no observable mutation" `Quick
            test_abort_thaws_unchanged ] );
      ( "recovery",
        [ Alcotest.test_case "source crash: resume with chunk dedup" `Quick
            test_source_crash_resumes_with_dedup;
          Alcotest.test_case "target crash: resume from journaled chunks" `Quick
            test_target_crash_resumes;
          Alcotest.test_case "receipt chain survives target restart" `Quick
            test_receipt_survives_target_restart ] );
      ( "re-homing",
        [ Alcotest.test_case "delegation import origin flips to the new host" `Quick
            test_rehoming_flips_import_origin ] );
      ( "differential",
        [ Alcotest.test_case "migrated state equals unmigrated replay" `Quick
            test_differential_migrated_vs_replay ] );
      ( "wire",
        [ QCheck_alcotest.to_alcotest prop_frame_roundtrip;
          QCheck_alcotest.to_alcotest prop_manifest_roundtrip;
          QCheck_alcotest.to_alcotest prop_truncation;
          QCheck_alcotest.to_alcotest prop_tamper;
          Alcotest.test_case "unknown cleanup and rights codes rejected" `Quick
            test_manifest_bad_codes_rejected ] ) ]
