(* The sharded federation: global-namespace routing, the lock-free
   read path under genuinely parallel writers, and 2PC
   atomicity-under-fault for the one cross-shard mutation (domain
   destruction). *)

open Testkit

let page = Hw.Addr.page_size
let range ~base ~len = Hw.Addr.Range.make ~base ~len
let stride = Sharded.addr_stride

let violations_str vs =
  String.concat "; " (List.map (Format.asprintf "%a" Tyche.Invariants.pp_violation) vs)

let check_shards t =
  for i = 0 to Sharded.shard_count t - 1 do
    let m = Sharded.shard_monitor t i in
    (match Tyche.Invariants.check_all m with
    | [] -> ()
    | vs -> Alcotest.failf "shard %d invariants: %s" i (violations_str vs));
    let r = Tyche.Fsck.check m in
    if not (Tyche.Fsck.ok r) then
      Alcotest.failf "shard %d fsck: %a" i Tyche.Fsck.pp r
  done

(* Per-shard structural snapshot: the captree image plus the id
   allocator. Equality across a failed 2PC is the rollback proof. *)
let snapshot t =
  Array.init (Sharded.shard_count t) (fun i ->
      let tree = Tyche.Monitor.tree (Sharded.shard_monitor t i) in
      (Cap.Captree.dump tree, Cap.Captree.next_id tree))

(* ---------------- namespace routing ---------------- *)

let test_global_ids () =
  let t = boot_sharded ~shards:3 () in
  Alcotest.(check int) "shards" 3 (Sharded.shard_count t);
  Alcotest.(check int) "cores" 6 (Sharded.cores t);
  (* Domain creation broadcasts: ids agree on every shard. *)
  let d = get_ok (Sharded.create_domain t ~caller:os ~name:"worker" ~kind:Tyche.Domain.Sandbox) in
  for i = 0 to 2 do
    match Tyche.Monitor.find_domain (Sharded.shard_monitor t i) d with
    | Some dd -> Alcotest.(check string) "name" "worker" (Tyche.Domain.name dd)
    | None -> Alcotest.failf "domain %d missing on shard %d" d i
  done;
  (* A carve on shard 1's memory routes to shard 1 and returns a
     global id that decodes back to shard 1. *)
  let c1 = sharded_os_memory_cap t ~shard:1 in
  Alcotest.(check int) "cap shard" 1 (Sharded.cap_shard c1);
  let sub = range ~base:(stride + (16 * page)) ~len:(4 * page) in
  let carved = get_ok (Sharded.carve t ~caller:os ~cap:c1 ~subrange:sub) in
  Alcotest.(check int) "carved cap shard" 1 (Sharded.cap_shard carved);
  (* The indexed queries translate back and forth. *)
  Alcotest.(check int) "refcount" 1
    (Sharded.refcount t (Cap.Resource.Memory sub));
  let shared =
    get_ok
      (Sharded.share t ~caller:os ~cap:carved ~to_:d ~rights:Cap.Rights.rw
         ~cleanup:Cap.Revocation.Zero ())
  in
  Alcotest.(check int) "refcount after share" 2
    (Sharded.refcount t (Cap.Resource.Memory sub));
  Alcotest.(check (list int)) "holders" [ os; d ]
    (List.sort compare (Sharded.holders t (Cap.Resource.Memory sub)));
  Alcotest.(check (list int)) "caps_of worker" [ shared ] (Sharded.caps_of t d);
  (* A subrange that straddles two shard windows is rejected, not
     silently clipped. *)
  (match
     Sharded.carve t ~caller:os ~cap:c1
       ~subrange:(range ~base:(stride - page) ~len:(2 * page))
   with
  | Error (Tyche.Monitor.Cap_error Cap.Captree.Bad_subrange) -> ()
  | _ -> Alcotest.fail "cross-window carve should be Bad_subrange");
  (* Unknown shard bits surface as No_such_capability with the global id. *)
  (match Sharded.revoke t ~caller:os ~cap:63 with
  | Error (Tyche.Monitor.Cap_error (Cap.Captree.No_such_capability 63)) -> ()
  | _ -> Alcotest.fail "shard-63 cap should be No_such_capability 63");
  check_shards t

let test_shard_count_invariance () =
  (* A workload confined to shard 0 produces identical global ids and
     responses under 1 shard and under 4. *)
  let run shards =
    let t = boot_sharded ~shards () in
    let c0 = sharded_os_memory_cap t ~shard:0 in
    let d = get_ok (Sharded.create_domain t ~caller:os ~name:"inv" ~kind:Tyche.Domain.Enclave) in
    let carved =
      get_ok
        (Sharded.carve t ~caller:os ~cap:c0
           ~subrange:(range ~base:(64 * page) ~len:(8 * page)))
    in
    let shared =
      get_ok
        (Sharded.share t ~caller:os ~cap:carved ~to_:d ~rights:Cap.Rights.rw
           ~cleanup:Cap.Revocation.Zero_and_flush ())
    in
    let a, b = get_ok (Sharded.split t ~caller:os ~cap:carved ~at:(68 * page)) in
    (d, carved, shared, a, b, Sharded.caps_of t d)
  in
  let r1 = run 1 and r4 = run 4 in
  if r1 <> r4 then Alcotest.fail "shard-0-confined ids diverge between 1 and 4 shards"

(* ---------------- cross-shard destruction (2PC) ---------------- *)

(* A domain holding capabilities on every shard: destruction must run
   the revocation cascade on each of them atomically. *)
let spread_domain t =
  let n = Sharded.shard_count t in
  let d = get_ok (Sharded.create_domain t ~caller:os ~name:"spread" ~kind:Tyche.Domain.Sandbox) in
  let subs =
    List.init n (fun i ->
        let sub = range ~base:((i * stride) + (32 * page)) ~len:(4 * page) in
        let carved =
          get_ok ~msg:"carve"
            (Sharded.carve t ~caller:os ~cap:(sharded_os_memory_cap t ~shard:i)
               ~subrange:sub)
        in
        let _ =
          get_ok ~msg:"share"
            (Sharded.share t ~caller:os ~cap:carved ~to_:d ~rights:Cap.Rights.rw
               ~cleanup:Cap.Revocation.Zero ())
        in
        sub)
  in
  (d, subs)

let test_destroy_spans_shards () =
  let t = boot_sharded ~shards:3 () in
  let d, subs = spread_domain t in
  List.iter
    (fun sub ->
      Alcotest.(check int) "shared refcount" 2 (Sharded.refcount t (Cap.Resource.Memory sub)))
    subs;
  get_ok ~msg:"destroy" (Sharded.destroy_domain t ~caller:os ~domain:d);
  List.iter
    (fun sub ->
      Alcotest.(check int) "refcount after destroy" 1
        (Sharded.refcount t (Cap.Resource.Memory sub)))
    subs;
  for i = 0 to 2 do
    if Tyche.Monitor.find_domain (Sharded.shard_monitor t i) d <> None then
      Alcotest.failf "domain survived on shard %d" i
  done;
  check_shards t

let test_2pc_prepare_fault () =
  let t = boot_sharded ~shards:3 () in
  let d, _subs = spread_domain t in
  let before = snapshot t in
  (* Lose the coordinator after every shard prepared its journal but
     before the commit decision: every shard must roll back. *)
  Fault.with_plan (Fault.nth "shard.prepare" 1) (fun () ->
      match Sharded.destroy_domain t ~caller:os ~domain:d with
      | Ok () -> Alcotest.fail "destroy should abort on a prepare fault"
      | Error (Tyche.Monitor.Backend_failure msg) ->
        if not (contains_substring msg "rolled back") then
          Alcotest.failf "unexpected abort message: %s" msg
      | Error e -> Alcotest.failf "unexpected error: %s" (Tyche.Monitor.error_to_string e));
  let after = snapshot t in
  Array.iteri
    (fun i (dump, next) ->
      let dump', next' = after.(i) in
      if dump <> dump' || next <> next' then
        Alcotest.failf "shard %d state changed across an aborted 2PC" i)
    before;
  for i = 0 to 2 do
    if Tyche.Monitor.find_domain (Sharded.shard_monitor t i) d = None then
      Alcotest.failf "domain lost on shard %d despite rollback" i
  done;
  check_shards t;
  (* The federation is fully functional after the abort. *)
  get_ok ~msg:"destroy after abort" (Sharded.destroy_domain t ~caller:os ~domain:d);
  check_shards t

let test_2pc_commit_fault () =
  let t = boot_sharded ~shards:3 () in
  let d, subs = spread_domain t in
  (* A fault after the commit decision must not yield a partial state:
     post-decision per-shard commits are absorbed and completed. *)
  Fault.with_plan (Fault.nth "shard.commit" 1) (fun () ->
      get_ok ~msg:"destroy past commit point" (Sharded.destroy_domain t ~caller:os ~domain:d));
  for i = 0 to 2 do
    if Tyche.Monitor.find_domain (Sharded.shard_monitor t i) d <> None then
      Alcotest.failf "domain survived on shard %d past the commit point" i
  done;
  List.iter
    (fun sub ->
      Alcotest.(check int) "refcount" 1 (Sharded.refcount t (Cap.Resource.Memory sub)))
    subs;
  check_shards t

(* ---------------- parallel execution ---------------- *)

(* Writers hammer their own shard from separate OCaml Domains while
   readers sweep the optimistic queries. The assertion is absence of
   crashes/corruption: per-shard invariants and fsck afterwards. *)
let test_parallel_writers () =
  let shards = 2 in
  let t = boot_sharded ~shards ~mem_size:(4 * 1024 * 1024) () in
  let d = get_ok (Sharded.create_domain t ~caller:os ~name:"load" ~kind:Tyche.Domain.Sandbox) in
  let iters = 200 in
  let writer shard () =
    let base_cap = sharded_os_memory_cap t ~shard in
    for i = 0 to iters - 1 do
      let sub = range ~base:((shard * stride) + ((256 + (i mod 64)) * page)) ~len:page in
      match Sharded.carve t ~caller:os ~cap:base_cap ~subrange:sub with
      | Error _ -> ()
      | Ok carved ->
        (match
           Sharded.share t ~caller:os ~cap:carved ~to_:d ~rights:Cap.Rights.read_only
             ~cleanup:Cap.Revocation.Keep ()
         with
        | Ok shared -> ignore (Sharded.revoke t ~caller:os ~cap:shared)
        | Error _ -> ());
        ignore (Sharded.revoke t ~caller:os ~cap:carved)
    done
  in
  let reader () =
    for i = 0 to (iters * 2) - 1 do
      let shard = i mod shards in
      let sub = range ~base:((shard * stride) + ((256 + (i mod 64)) * page)) ~len:page in
      ignore (Sharded.refcount t (Cap.Resource.Memory sub));
      ignore (Sharded.holders t (Cap.Resource.Memory sub));
      ignore (Sharded.caps_of t d)
    done
  in
  let spawned =
    List.init shards (fun s -> Stdlib.Domain.spawn (writer s))
    @ [ Stdlib.Domain.spawn reader ]
  in
  List.iter Stdlib.Domain.join spawned;
  check_shards t;
  get_ok ~msg:"destroy after load" (Sharded.destroy_domain t ~caller:os ~domain:d);
  check_shards t

(* ---------------- seal + aggregate attestation ---------------- *)

let test_seal_and_attest () =
  let t = boot_sharded ~shards:2 () in
  let d = get_ok (Sharded.create_domain t ~caller:os ~name:"encl" ~kind:Tyche.Domain.Enclave) in
  (* Code on shard 0, a core capability from shard 1: the attestation
     must aggregate resources across shards. *)
  let code = range ~base:(128 * page) ~len:(2 * page) in
  let carved =
    get_ok (Sharded.carve t ~caller:os ~cap:(sharded_os_memory_cap t ~shard:0) ~subrange:code)
  in
  let _ =
    get_ok
      (Sharded.grant t ~caller:os ~cap:carved ~to_:d ~rights:Cap.Rights.rx
         ~cleanup:Cap.Revocation.Zero)
  in
  let far_core = Sharded.cores_per_shard t in
  let _ =
    get_ok
      (Sharded.share t ~caller:os ~cap:(sharded_os_core_cap t far_core) ~to_:d
         ~rights:Cap.Rights.exclusive_use ~cleanup:Cap.Revocation.Keep ())
  in
  get_ok (Sharded.set_entry_point t ~caller:os ~domain:d (Hw.Addr.Range.base code));
  get_ok (Sharded.mark_measured t ~caller:os ~domain:d code);
  get_ok ~msg:"seal" (Sharded.seal t ~caller:os ~domain:d);
  (* Sealed on every shard, same measurement. *)
  let meas i =
    match Tyche.Monitor.find_domain (Sharded.shard_monitor t i) d with
    | Some dd -> Tyche.Domain.measurement dd
    | None -> Alcotest.failf "domain missing on shard %d" i
  in
  Alcotest.(check bool) "sealed measurement replicated" true (meas 0 = meas 1 && meas 0 <> None);
  let att = get_ok ~msg:"attest" (Sharded.attest t ~caller:os ~domain:d ~nonce:"n-1") in
  (* The aggregate body sees the shard-0 region under its global range
     and the shard-1 core under its global id. *)
  let has_code =
    List.exists
      (fun (r : Tyche.Attestation.region_report) -> r.Tyche.Attestation.range = code && r.measured)
      att.Tyche.Attestation.regions
  in
  Alcotest.(check bool) "code region attested" true has_code;
  Alcotest.(check bool) "far core attested" true
    (List.mem_assoc far_core att.Tyche.Attestation.cores);
  check_shards t

(* ---------------- durability ---------------- *)

let test_persist_recover () =
  let store = Persist.Store.mem () in
  let seed = 0x5AADL in
  let t = boot_sharded ~seed ~shards:2 () in
  Sharded.enable_persistence t ~store ();
  let d, _ = spread_domain t in
  let d2 = get_ok (Sharded.create_domain t ~caller:os ~name:"keep" ~kind:Tyche.Domain.Sandbox) in
  get_ok (Sharded.destroy_domain t ~caller:os ~domain:d);
  Sharded.flush t;
  let fp i =
    let tree = Tyche.Monitor.tree (Sharded.shard_monitor t i) in
    (Cap.Captree.dump tree, Cap.Captree.next_id tree)
  in
  let before = (fp 0, fp 1) in
  (* Rebuild the federation from the front-end WAL alone. *)
  let rng = Crypto.Rng.create ~seed in
  let mk ~shard =
    let machine = Hw.Machine.create ~arch:Hw.Cpu.X86_64 ~cores:2 ~mem_size:(8 * 1024 * 1024) () in
    let srng = Crypto.Rng.create ~seed:(Int64.add seed (Int64.of_int (shard * 7919))) in
    let tpm = Rot.Tpm.create srng in
    let report =
      Rot.Boot.measured_boot tpm machine ~firmware ~loader:loader_blob ~monitor_image
    in
    (machine, Backend_x86.create machine (), tpm, srng, report.Rot.Boot.monitor_range)
  in
  let t', rep = Sharded.recover ~shards:2 ~rng ~mk ~store () in
  (match rep.Sharded.sr_stopped_early with
  | None -> ()
  | Some why -> Alcotest.failf "recovery stopped early: %s" why);
  Alcotest.(check int) "all records replayed" rep.Sharded.sr_wal_records
    rep.Sharded.sr_replayed;
  let fp' i =
    let tree = Tyche.Monitor.tree (Sharded.shard_monitor t' i) in
    (Cap.Captree.dump tree, Cap.Captree.next_id tree)
  in
  if before <> (fp' 0, fp' 1) then Alcotest.fail "recovered captrees differ";
  if Sharded.find_domain t' d <> None then Alcotest.fail "destroyed domain resurrected";
  (match Sharded.find_domain t' d2 with
  | Some dd -> Alcotest.(check string) "surviving domain" "keep" (Tyche.Domain.name dd)
  | None -> Alcotest.fail "surviving domain lost");
  check_shards t'

let () =
  Alcotest.run "sharded"
    [
      ( "namespace",
        [
          Alcotest.test_case "global ids route to shards" `Quick test_global_ids;
          Alcotest.test_case "shard-count invariance on shard 0" `Quick
            test_shard_count_invariance;
        ] );
      ( "2pc",
        [
          Alcotest.test_case "destroy spans shards" `Quick test_destroy_spans_shards;
          Alcotest.test_case "prepare fault rolls every shard back" `Quick
            test_2pc_prepare_fault;
          Alcotest.test_case "commit fault cannot leave a partial state" `Quick
            test_2pc_commit_fault;
        ] );
      ( "parallel",
        [ Alcotest.test_case "writers per shard + seqlock readers" `Quick test_parallel_writers ] );
      ( "attest",
        [ Alcotest.test_case "seal and aggregate attestation" `Quick test_seal_and_attest ] );
      ( "durability",
        [ Alcotest.test_case "WAL recovery rebuilds the federation" `Quick test_persist_recover ] );
    ]
