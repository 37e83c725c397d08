(* Differential backend test: record one op trace (as wire-encoded
   Api calls), replay it verbatim through a fresh monitor on each
   backend, and require the observable outcomes to agree — attestation
   bodies (canonical payload, signatures excluded), captree
   fingerprints, per-step response shapes, and the obs api.* op counts.
   Cycle stamps are deliberately excluded: the two backends cost the
   same operations differently, and that is fine; what they may not do
   is diverge in state or behavior. *)

open Testkit

let page = Hw.Addr.page_size
let core = 0

(* Both worlds must present identical initial conditions for cap ids in
   the recorded trace to mean the same thing: same core count, no
   devices, same memory size. *)
let worlds () = (boot_x86 ~cores:2 (), boot_riscv ~cores:2 ())

let dispatch w call = Tyche.Api.dispatch w.monitor ~caller:os ~core call

(* Record the trace on a scratch x86 world: the script needs real cap
   ids (carve's result feeds share, share's feeds revoke), so each call
   is dispatched as it is recorded. Only the encoded bytes survive. *)
let recorded_trace () =
  let w = boot_x86 ~cores:2 () in
  let trace = ref [] in
  let run call =
    trace := Tyche.Api.encode call :: !trace;
    dispatch w call
  in
  let cap_of = function
    | Ok (Tyche.Api.R_cap c) -> c
    | _ -> Alcotest.fail "recording: expected a capability result"
  in
  let dom_of = function
    | Ok (Tyche.Api.R_domain d) -> d
    | _ -> Alcotest.fail "recording: expected a domain result"
  in
  let mem = os_memory_cap w in
  let sbx = dom_of (run (Create_domain { name = "diff-sbx"; kind = Tyche.Domain.Sandbox })) in
  let piece = cap_of (run (Carve { cap = mem; subrange = Hw.Addr.Range.make ~base:0x400000 ~len:(2 * page) })) in
  let left, _right =
    match run (Split { cap = piece; at = 0x400000 + page }) with
    | Ok (Tyche.Api.R_cap_pair (a, b)) -> (a, b)
    | _ -> Alcotest.fail "recording: expected a cap pair"
  in
  let shared =
    cap_of
      (run
         (Share
            { cap = left; to_ = sbx; rights = Cap.Rights.rw;
              cleanup = Cap.Revocation.Zero; subrange = None }))
  in
  ignore (run (Set_entry_point { domain = sbx; entry = 0x400000 }));
  ignore (run (Mark_measured { domain = sbx; range = Hw.Addr.Range.make ~base:0x400000 ~len:page }));
  ignore (run (Seal { domain = sbx }));
  ignore (run (Attest { domain = sbx; nonce = "diff-nonce" }));
  ignore (run (Call { target = sbx }));
  ignore (run Return);
  ignore (run (Revoke { cap = shared }));
  ignore (run (Attest { domain = sbx; nonce = "diff-nonce-2" }));
  ignore (run Enumerate);
  (* A denied call must be denied identically on both backends. *)
  ignore (run (Seal { domain = 7777 }));
  List.rev !trace

(* Transition paths are backend-specific by design (vmfunc vs ecall);
   everything else about a response must match verbatim. *)
let summarize_response = function
  | Ok (Tyche.Api.R_path _) -> "ok <transition path>"
  | r -> Format.asprintf "%a" Tyche.Api.pp_response r

type outcome = {
  o_responses : string list;
  o_attest_bodies : Tyche.Attestation.t list;
  o_fingerprint : Cap.Captree.node_spec list * Cap.Captree.cap_id;
  o_api_counts : (string * int) list;
}

let replay w trace =
  Obs.reset ();
  let attests = ref [] in
  let responses =
    List.map
      (fun bytes ->
        let call = get_ok_str ~msg:"decode recorded call" (Tyche.Api.decode bytes) in
        let resp = dispatch w call in
        (match resp with
        | Ok (Tyche.Api.R_attestation a) -> attests := a :: !attests
        | _ -> ());
        summarize_response resp)
      trace
  in
  let tree = Tyche.Monitor.tree w.monitor in
  let api_counts =
    List.filter
      (fun (name, _) -> String.length name > 7 && String.sub name 0 7 = "op.api.")
      (Obs.Metrics.counters ())
  in
  { o_responses = responses;
    o_attest_bodies = List.rev !attests;
    o_fingerprint = (Cap.Captree.dump tree, Cap.Captree.next_id tree);
    o_api_counts = api_counts }

let test_differential () =
  let wx, wr = worlds () in
  (* Initial capability layouts must agree, or replayed cap ids would
     name different resources on the two backends. *)
  let initial w =
    List.map
      (fun c -> (c, Cap.Captree.resource (Tyche.Monitor.tree w.monitor) c))
      (Tyche.Monitor.caps_of w.monitor os)
  in
  Alcotest.(check bool) "initial caps agree" true (initial wx = initial wr);
  let trace = recorded_trace () in
  let ox = replay wx trace in
  let or_ = replay wr trace in
  List.iteri
    (fun i (a, b) ->
      if a <> b then
        Alcotest.failf "step %d: x86 answered %s, riscv answered %s" i a b)
    (List.combine ox.o_responses or_.o_responses);
  Alcotest.(check int) "attestation count" (List.length ox.o_attest_bodies)
    (List.length or_.o_attest_bodies);
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "attestation %d body identical" i)
        true
        (Tyche.Fsck.body_equal a b))
    (List.combine ox.o_attest_bodies or_.o_attest_bodies);
  Alcotest.(check bool) "captree fingerprints agree" true
    (ox.o_fingerprint = or_.o_fingerprint);
  Alcotest.(check bool) "api op counts agree" true (ox.o_api_counts = or_.o_api_counts);
  (* Neither replay may leak spans; counts must be non-trivial. *)
  Alcotest.(check bool) "api ops were counted" true
    (List.exists (fun (_, n) -> n > 0) ox.o_api_counts);
  match Obs.check () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "obs self-audit after replay: %s" e

(* ---------------- sharded vs. unsharded ----------------

   The global-id encoding is shard-count invariant for shard 0: a
   workload confined to shard 0's resources must produce identical
   responses, attestation bodies and shard-0 captree fingerprints
   whether the federation has 1 shard or 4. The trace is recorded on a
   scratch 1-shard world (ops need real ids, as above) and replayed
   verbatim through both. *)

let sharded_dispatch t call = Sharded.dispatch t ~caller:os ~core call

let sharded_trace () =
  let t = boot_sharded ~shards:1 () in
  let trace = ref [] in
  let run call =
    trace := Tyche.Api.encode call :: !trace;
    sharded_dispatch t call
  in
  let cap_of = function
    | Ok (Tyche.Api.R_cap c) -> c
    | _ -> Alcotest.fail "recording: expected a capability result"
  in
  let dom_of = function
    | Ok (Tyche.Api.R_domain d) -> d
    | _ -> Alcotest.fail "recording: expected a domain result"
  in
  let mem = sharded_os_memory_cap t ~shard:0 in
  let sbx = dom_of (run (Create_domain { name = "diff-sbx"; kind = Tyche.Domain.Sandbox })) in
  let piece = cap_of (run (Carve { cap = mem; subrange = Hw.Addr.Range.make ~base:0x400000 ~len:(2 * page) })) in
  let left, _right =
    match run (Split { cap = piece; at = 0x400000 + page }) with
    | Ok (Tyche.Api.R_cap_pair (a, b)) -> (a, b)
    | _ -> Alcotest.fail "recording: expected a cap pair"
  in
  let shared =
    cap_of
      (run
         (Share
            { cap = left; to_ = sbx; rights = Cap.Rights.rw;
              cleanup = Cap.Revocation.Zero; subrange = None }))
  in
  ignore (run (Set_entry_point { domain = sbx; entry = 0x400000 }));
  ignore (run (Mark_measured { domain = sbx; range = Hw.Addr.Range.make ~base:0x400000 ~len:page }));
  ignore (run (Seal { domain = sbx }));
  ignore (run (Attest { domain = sbx; nonce = "shard-nonce" }));
  ignore (run (Call { target = sbx }));
  ignore (run Return);
  ignore (run (Revoke { cap = shared }));
  (* A short-lived second domain: Destroy exercises the 2PC broadcast
     path on the N-shard side and the degenerate 1-shard path. *)
  let tmp = dom_of (run (Create_domain { name = "diff-tmp"; kind = Tyche.Domain.Sandbox })) in
  (* Carving invalidated the old root: re-query the OS's largest piece
     (deterministic, so the recorded id means the same on replay). *)
  let mem2 = sharded_os_memory_cap t ~shard:0 in
  let piece2 = cap_of (run (Carve { cap = mem2; subrange = Hw.Addr.Range.make ~base:0x100000 ~len:page })) in
  ignore
    (run
       (Share
          { cap = piece2; to_ = tmp; rights = Cap.Rights.read_only;
            cleanup = Cap.Revocation.Keep; subrange = None }));
  ignore (run (Destroy { domain = tmp }));
  ignore (run (Attest { domain = sbx; nonce = "shard-nonce-2" }));
  (* Denied calls must be denied identically at every shard count. *)
  ignore (run (Seal { domain = 7777 }));
  (sbx, List.rev !trace)

type sharded_outcome = {
  s_responses : string list;
  s_attest_bodies : Tyche.Attestation.t list;
  s_fingerprint : Cap.Captree.node_spec list * Cap.Captree.cap_id;
  s_sbx_caps : Cap.Captree.cap_id list;
}

let sharded_replay t sbx trace =
  let attests = ref [] in
  let responses =
    List.map
      (fun bytes ->
        let call = get_ok_str ~msg:"decode recorded call" (Tyche.Api.decode bytes) in
        let resp = sharded_dispatch t call in
        (match resp with
        | Ok (Tyche.Api.R_attestation a) -> attests := a :: !attests
        | _ -> ());
        summarize_response resp)
      trace
  in
  let tree = Tyche.Monitor.tree (Sharded.shard_monitor t 0) in
  { s_responses = responses;
    s_attest_bodies = List.rev !attests;
    s_fingerprint = (Cap.Captree.dump tree, Cap.Captree.next_id tree);
    s_sbx_caps = Sharded.caps_of t sbx }

let test_sharded_differential () =
  let sbx, trace = sharded_trace () in
  let o1 = sharded_replay (boot_sharded ~shards:1 ()) sbx trace in
  let o4 = sharded_replay (boot_sharded ~shards:4 ()) sbx trace in
  List.iteri
    (fun i (a, b) ->
      if a <> b then
        Alcotest.failf "step %d: 1-shard answered %s, 4-shard answered %s" i a b)
    (List.combine o1.s_responses o4.s_responses);
  Alcotest.(check int) "attestation count" (List.length o1.s_attest_bodies)
    (List.length o4.s_attest_bodies);
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "attestation %d body identical" i)
        true
        (Tyche.Fsck.body_equal a b))
    (List.combine o1.s_attest_bodies o4.s_attest_bodies);
  Alcotest.(check bool) "shard-0 captree fingerprints agree" true
    (o1.s_fingerprint = o4.s_fingerprint);
  Alcotest.(check bool) "sandbox capability sets agree" true (o1.s_sbx_caps = o4.s_sbx_caps)

let () =
  Alcotest.run "differential"
    [
      ("backends", [ Alcotest.test_case "x86 vs riscv replay" `Quick test_differential ]);
      ( "sharding",
        [ Alcotest.test_case "1 shard vs 4 shards replay" `Quick test_sharded_differential ] );
    ]
