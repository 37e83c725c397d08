(* fleet-migrate: two x86 monitors over a loss-free in-process network.

   Each node has an in-memory store (the monitor's redo log at its
   shipped defaults, the fleet outbox journal and the migration
   journal), a fleet endpoint and a migration endpoint; one loop pumps
   both. Each round of the seeded stream picks a direction and a page,
   delegates the page to the peer (pumped until both endpoints are
   idle), uses it — the delegating node's standing service enclave
   handles one request: call, loads and stores, ret — and revokes it
   with [Fleet.revoke] (pumped until idle). Every [migrate_every] rounds
   a fresh sealed enclave of [enclave_pages] pages, [distinct] of them
   with distinct content, migrates to the other node (the direction
   alternates); the target's receipt is verified, the adopted enclave
   is attested on the target and checked by the verifier, then the
   enclave is retired so memory stays bounded. *)

let arch = Hw.Cpu.X86_64
let cores = 2
let mem_size = 16 * 1024 * 1024
let signer_height = 10
let migrate_every = 256

(* Two migration cycles. *)
let slice_steps = 2 * migrate_every

(* heap_peak_mb is read once this many ops have been attempted. *)
let heap_ops = 200_000

let enclave_pages = 16
let distinct = 6
let mig_slots = 4
let mig_base = 0x800000
let service_base = 0x400000
let service_pages = 4
let deleg_base = 0xc00000
let deleg_pages = 256
let key = "perfbench-fleet-session-key-0123"
let nonce = "perfbench-fleet-migrate"
let max_pump_rounds = 1024

type fnode = {
  name : string;
  node : Rig.node;
  fleet : Distributed.Fleet.t;
  mig : Distributed.Migrate.t;
  service : Tyche.Domain.id;
  root : Crypto.Sha256.digest;
  mutable keys_used : int;
}

type t = {
  net : Distributed.Network.t;
  a : fnode;
  b : fnode;
  rng : Random.State.t;
  mutable rounds : int;
}

let network t = Some t.net
let monitors t = [ t.a.node.Rig.monitor; t.b.node.Rig.monitor ]
let machines t = [ t.a.node.Rig.machine; t.b.node.Rig.machine ]
let signer_budget = (1 lsl signer_height) - 8
let exhausted t = max t.a.keys_used t.b.keys_used + 4 > signer_budget

let fleet_err r = Result.map_error Distributed.Fleet.error_to_string r
let mig_err r = Result.map_error Distributed.Migrate.error_to_string r

let make_node ~split ~trace ~net ~seed name =
  let node =
    Rig.boot_node ~split ~trace ~arch ~cores ~mem_size ~seed ~signer_height
      ~store:(Some (Persist.Store.mem ())) ()
  in
  let t0 = Clock.now_ns () in
  let m = node.Rig.monitor in
  let store = Option.get node.Rig.store in
  Tyche.Monitor.enable_persistence m ~store ();
  let fleet = Distributed.Fleet.create ~store ~monitor:m ~name ~net () in
  let mig = Distributed.Migrate.attach ~fleet ~store () in
  let root = Rig.establish_trust node ~nonce in
  (* The standing service enclave that "uses" delegated pages. *)
  let service =
    Rig.call_domain m ~caller:Rig.os ~core:0
      (Tyche.Api.Create_domain { name = "service"; kind = Tyche.Domain.Enclave })
  in
  let r = Rig.range ~base:service_base ~pages:service_pages in
  let piece =
    Rig.call_cap m ~caller:Rig.os ~core:0
      (Tyche.Api.Carve { cap = Rig.cap_over m ~owner:Rig.os r; subrange = r })
  in
  ignore
    (Rig.call_cap m ~caller:Rig.os ~core:0
       (Tyche.Api.Grant
          { cap = piece; to_ = service; rights = Cap.Rights.full; cleanup = Cap.Revocation.Zero }));
  ignore
    (Rig.call_cap m ~caller:Rig.os ~core:0
       (Tyche.Api.Share
          { cap = Rig.core_cap m 1; to_ = service; rights = Cap.Rights.exclusive_use;
            cleanup = Cap.Revocation.Keep; subrange = None }));
  Rig.call_unit m ~caller:Rig.os ~core:0
    (Tyche.Api.Set_entry_point { domain = service; entry = service_base });
  Rig.call_unit m ~caller:Rig.os ~core:0 (Tyche.Api.Seal { domain = service });
  split.Rig.populate_s <- split.Rig.populate_s +. Clock.seconds_since t0;
  { name; node; fleet; mig; service; root; keys_used = 0 }

let setup ~seed ~trace ~(split : Rig.setup_split) =
  let net = Distributed.Network.create () in
  let a = make_node ~split ~trace ~net ~seed "alpha" in
  let b = make_node ~split ~trace ~net ~seed:(seed + 1) "beta" in
  let t0 = Clock.now_ns () in
  let connect x y =
    (match Distributed.Fleet.connect x.fleet ~peer:y.name ~key with
    | Ok _ -> ()
    | Error e -> failwith ("perfbench: connect: " ^ Distributed.Fleet.error_to_string e));
    Distributed.Migrate.set_peer_root x.mig ~peer:y.name (Tyche.Monitor.attestation_root y.node.Rig.monitor)
  in
  connect a b;
  connect b a;
  split.Rig.populate_s <- split.Rig.populate_s +. Clock.seconds_since t0;
  { net; a; b; rng = Random.State.make [| seed; 0xf1ee7 |]; rounds = 0 }

(* Drive both endpoints until neither has work in flight: deliver
   everything pending, and advance logical time only when a round
   delivered nothing (so a loss-free link sees no spurious retries). *)
let pump t =
  let nodes = [ t.a; t.b ] in
  let idle () =
    List.for_all
      (fun n -> Distributed.Fleet.idle n.fleet && Distributed.Migrate.idle n.mig)
      nodes
  in
  let rounds = ref 0 in
  while (not (idle ())) && !rounds < max_pump_rounds do
    incr rounds;
    let delivered = List.fold_left (fun acc n -> acc + Distributed.Fleet.poll n.fleet) 0 nodes in
    List.iter (fun n -> Distributed.Migrate.tick n.mig) nodes;
    if delivered = 0 then List.iter (fun n -> Distributed.Fleet.tick n.fleet) nodes
  done;
  Rig.pump_rounds := !Rig.pump_rounds + !rounds;
  if idle () then Ok () else Error "no convergence on a loss-free link"

(* A distributed op completes when both endpoints are idle again. *)
let pumped t f = Result.bind (f ()) (fun v -> Result.map (fun () -> v) (pump t))

let round t =
  let src, dst = if Random.State.bool t.rng then (t.a, t.b) else (t.b, t.a) in
  let m = src.node.Rig.monitor in
  let page = Rig.range ~base:(deleg_base + (Random.State.int t.rng deleg_pages * Rig.page)) ~pages:1 in
  let t0 = Clock.now_ns () in
  let del_id =
    Rig.op Trace.Distributed "fleet.delegate" (fun () ->
        pumped t (fun () ->
            fleet_err
              (Distributed.Fleet.delegate src.fleet ~caller:Rig.os
                 ~cap:(Rig.cap_over m ~owner:Rig.os page) ~peer:dst.name ~subrange:page
                 ~rights:Cap.Rights.rw ())))
  in
  let t1 = Clock.now_ns () in
  Rig.sample Rig.delegate_rt_us (float_of_int (t1 - t0) /. 1e3);
  Rig.call_ret m ~core:1 ~caller:Rig.os ~target:src.service (fun () ->
      for i = 0 to 3 do
        let addr = service_base + (Random.State.int t.rng (service_pages * Rig.page / 8) * 8) in
        if i land 1 = 0 then ignore (Rig.guest (fun () -> Tyche.Monitor.load m ~core:1 addr))
        else Rig.guest (fun () -> Tyche.Monitor.store m ~core:1 addr i)
      done);
  let proxy_cap =
    match
      List.find_opt
        (fun d -> d.Distributed.Fleet.del_id = del_id)
        (Distributed.Fleet.delegations src.fleet)
    with
    | Some d -> d.Distributed.Fleet.proxy_cap
    | None -> Rig.fail "fleet.delegate" "delegation vanished"
  in
  Rig.timed_revoke m (fun () ->
      Rig.op Trace.Distributed "fleet.revoke" (fun () ->
          pumped t (fun () ->
              fleet_err (Distributed.Fleet.revoke src.fleet ~caller:Rig.os ~cap:proxy_cap))));
  Rig.sample Rig.lifecycle_us (float_of_int (Clock.now_ns () - t0) /. 1e3)

let enclave_content i =
  String.concat ""
    (List.init enclave_pages (fun p ->
         let s = if p < distinct then Printf.sprintf "enclave-%d-page-%d" i p else "" in
         s ^ String.make (Rig.page - String.length s) '\000'))

let migrate t =
  let i = !Rig.migrations in
  let src, dst = if i land 1 = 0 then (t.a, t.b) else (t.b, t.a) in
  let m = src.node.Rig.monitor in
  let base = mig_base + (i mod mig_slots * enclave_pages * Rig.page) in
  let r = Rig.range ~base ~pages:enclave_pages in
  let call c = Rig.call m ~caller:Rig.os ~core:0 c in
  let d =
    match
      call (Tyche.Api.Create_domain { name = Printf.sprintf "mig-%d" i; kind = Tyche.Domain.Enclave })
    with
    | Tyche.Api.R_domain d -> d
    | _ -> Rig.bad_result "create_domain"
  in
  for p = 0 to distinct - 1 do
    Rig.guest (fun () ->
        Tyche.Monitor.store_string m ~core:0 (base + (p * Rig.page))
          (Printf.sprintf "enclave-%d-page-%d" i p))
  done;
  let piece =
    match call (Tyche.Api.Carve { cap = Rig.cap_over m ~owner:Rig.os r; subrange = r }) with
    | Tyche.Api.R_cap c -> c
    | _ -> Rig.bad_result "carve"
  in
  ignore
    (call
       (Tyche.Api.Grant
          { cap = piece; to_ = d; rights = Cap.Rights.full;
            cleanup = Cap.Revocation.Zero_and_flush }));
  ignore (call (Tyche.Api.Set_entry_point { domain = d; entry = base }));
  ignore (call (Tyche.Api.Mark_measured { domain = d; range = r }));
  ignore (call (Tyche.Api.Seal { domain = d }));
  let bytes0 = Distributed.Network.total_bytes t.net in
  let t0 = Clock.now_ns () in
  src.keys_used <- src.keys_used + 1;
  let mig =
    Rig.op Trace.Distributed "migrate" (fun () ->
        pumped t (fun () -> mig_err (Distributed.Migrate.start src.mig ~domain:d ~peer:dst.name)))
  in
  let ms = float_of_int (Clock.now_ns () - t0) /. 1e6 in
  (match Distributed.Migrate.status src.mig ~mig with
  | Some (Distributed.Migrate.Source, Distributed.Migrate.Committed) -> ()
  | _ -> Rig.fail "migrate" "source did not commit");
  Rig.sample Rig.migrate_ms ms;
  Rig.wire_bytes_migrated := !Rig.wire_bytes_migrated + (Distributed.Network.total_bytes t.net - bytes0);
  incr Rig.migrations;
  (* The target's receipt, then the tenant's own check of the adopted
     enclave on its new host. *)
  incr Rig.receipts_checked;
  if not (Distributed.Migrate.verify_receipt dst.mig ~mig) then
    Rig.check_fail (Printf.sprintf "migration %s: receipt does not verify" mig);
  let dm = dst.node.Rig.monitor in
  match Distributed.Migrate.adopted_domain dst.mig ~mig with
  | None -> Rig.check_fail (Printf.sprintf "migration %s: no adopted domain" mig)
  | Some adopted ->
    dst.keys_used <- dst.keys_used + 1;
    let t1 = Clock.now_ns () in
    (match
       Rig.call dm ~caller:Rig.os ~core:0 (Tyche.Api.Attest { domain = adopted; nonce })
     with
    | Tyche.Api.R_attestation att ->
      let policy =
        [ Verifier.Policy.Sealed;
          Verifier.Policy.Kind_is Tyche.Domain.Enclave;
          Verifier.Policy.Measurement_is
            (Rig.expected_measurement ~kind:Tyche.Domain.Enclave ~entry_offset:0
               ~content:(enclave_content i));
          Verifier.Policy.Region_exclusive r ]
      in
      Rig.sample Rig.attest_us (float_of_int (Clock.now_ns () - t1) /. 1e3);
      Rig.submit ~root:dst.root ~nonce ~policy att
    | _ -> Rig.bad_result "attest");
    Rig.call_unit dm ~caller:Rig.os ~core:0 (Tyche.Api.Destroy { domain = adopted })

let step t =
  t.rounds <- t.rounds + 1;
  if t.rounds mod migrate_every = 0 then (migrate t; 1) else (round t; 0)

let check t =
  List.iter
    (fun n ->
      if not (Distributed.Fleet.idle n.fleet && Distributed.Migrate.idle n.mig) then
        Rig.check_fail (n.name ^ ": endpoint not idle at the end of the run");
      if Distributed.Fleet.delegations n.fleet <> [] then
        Rig.check_fail (n.name ^ ": delegations left live"))
    [ t.a; t.b ]
