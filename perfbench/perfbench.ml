(* perfbench: the monitor's end-to-end benchmark.

   perfbench --workload W --seed N --seconds S --trace 0|1
             [--ops N] [--commit ID] [--nproc N] [--trace-out FILE]

   Sets the workload up [setups] times (reporting the median set-up time),
   runs the last set-up's seeded stream closed-loop for S seconds (or
   for N ops with --ops), checks the results, and prints as its last
   line one JSON object: the end-to-end metrics with --trace 0, the
   per-layer metrics with --trace 1. See README.md. *)

module type WORKLOAD = sig
  type t

  val setup : seed:int -> trace:bool -> split:Rig.setup_split -> t
  (* Runs one step and returns its class: steps of one class carry the
     same work (see [steady_ops_per_s]). *)
  val step : t -> int
  val slice_steps : int
  val heap_ops : int
  val monitors : t -> Tyche.Monitor.t list
  val machines : t -> Hw.Machine.t list
  val network : t -> Distributed.Network.t option
  val exhausted : t -> bool
  val check : t -> unit
end

let workloads : (string * (module WORKLOAD) * string) list =
  [ ("tenant-churn", (module Tenant_churn : WORKLOAD), "riscv, mem store: fsync_every 8, snapshot_every 256");
    ("revoke-cascade", (module Revoke_cascade : WORKLOAD), "x86, no store");
    ("fleet-migrate", (module Fleet_migrate : WORKLOAD), "2 x x86, mem stores at shipped defaults") ]

let signer_height = function
  | "tenant-churn" -> Tenant_churn.signer_height
  | "revoke-cascade" -> Revoke_cascade.signer_height
  | _ -> Fleet_migrate.signer_height

let setups = 5

(* The traced run alternates recording off and on from slice to slice
   of [W.slice_steps] steps. A slice is whole passes of the workload's
   seeded decks, so the two halves it compares carry the same work. *)

(* --- arguments --------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: perfbench --workload (tenant-churn|revoke-cascade|fleet-migrate) --seed N \
     --seconds S --trace 0|1 [--ops N] [--commit ID] [--nproc N] [--trace-out FILE]";
  exit 2

let args =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  tbl

let arg k = Hashtbl.find_opt args k
let int_arg k = Option.map (fun v -> match int_of_string_opt v with Some n -> n | None -> usage ()) (arg k)

(* --- metrics output ---------------------------------------------------- *)

let json_num v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith "perfbench: a metric is not a finite number"

let metrics_json l =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, unit_, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit_)
         l)
  ^ "}"

let per x n = if n <= 0 then 0. else float_of_int x /. float_of_int n
let fper x n = if n <= 0 then 0. else x /. float_of_int n

(* ops_per_s: the completed ops of the run's steps over the time they
   take when each step lasts its class's 90th-percentile step time.
   The shared host alternates, over seconds to minutes, between a
   contended phase in which its speed is steady and faster phases that
   come and go; the whole-run mean follows how much of a run the faster
   phases cover, while a high percentile of a class's step times stays
   in the contended phase. A cost paid by more than a tenth of a
   class's steps moves it in full. *)
let steady_pct = 90.

let steady_ops_per_s classes =
  let ops, ns =
    Hashtbl.fold
      (fun _ (times, ops_c) (ops, ns) ->
        (ops + !ops_c, ns +. (float_of_int (Stats.count times) *. Stats.percentile times steady_pct)))
      classes (0, 0.)
  in
  if ns <= 0. then 0. else float_of_int ops /. ns *. 1e9

let () =
  let name = match arg "workload" with Some w -> w | None -> usage () in
  let seed = match int_arg "seed" with Some s -> s | None -> usage () in
  let seconds = match int_arg "seconds" with Some s -> s | None -> usage () in
  let trace = match arg "trace" with Some "1" -> true | Some "0" -> false | _ -> usage () in
  let ops_budget = int_arg "ops" in
  let (module W : WORKLOAD), store_kind =
    match List.find_opt (fun (n, _, _) -> n = name) workloads with
    | Some (_, w, k) -> (w, k)
    | None -> usage ()
  in
  (* --- set-up, [setups] times; the last one runs --------------------- *)
  let splits = List.init setups (fun _ -> Rig.new_split ()) in
  let w =
    List.fold_left
      (fun _ split ->
        (* Only one world is alive at a time. *)
        Gc.full_major ();
        Some (W.setup ~seed ~trace ~split))
      None splits
    |> Option.get
  in
  let med f = Stats.median_of (List.map f splits) in
  let setup_s = med Rig.split_total in
  (* --- the timed phase ---------------------------------------------- *)
  Obs.reset ();
  Trace.reset ();
  Rig.ops := 0;
  Rig.failed := 0;
  Rig.first_failures := [];
  let monitors = W.monitors w and machines = W.machines w in
  let cycles () = List.fold_left (fun acc m -> acc + Hw.Machine.cycles m) 0 machines in
  let generation () =
    List.fold_left (fun acc m -> acc + Cap.Captree.generation (Tyche.Monitor.tree m)) 0 monitors
  in
  let telemetry () = List.map Tyche.Monitor.attest_telemetry monitors in
  let cycles0 = cycles () and gen0 = generation () and tel0 = telemetry () in
  let written0 = Obs.written () in
  let on_ns = ref 0 and off_ns = ref 0 and on_ops = ref 0 and off_ops = ref 0 in
  let on_victims = ref 0 and alloc_words = ref 0. and alloc_ops = ref 0 in
  let steps = ref 0 in
  let completed () = !Rig.ops - !Rig.failed in
  (* The peak heap once [W.heap_ops] ops have been attempted: a fixed
     amount of work, so a faster program does not show a larger heap. *)
  let heap_words = ref None in
  let take_heap () =
    if !heap_words = None then heap_words := Some (Gc.quick_stat ()).Gc.top_heap_words
  in
  Rig.paused_ns := 0;
  Rig.paused_words := 0.;
  let t_start = Clock.now_ns () in
  let deadline = t_start + (seconds * 1_000_000_000) in
  let stop_reason = ref "time" in
  (* Untraced step times and completed ops, by step class. *)
  let classes = Hashtbl.create 64 in
  let continue = ref true in
  while !continue do
    let t0 = Clock.now_ns () in
    let slice = !steps / W.slice_steps in
    incr steps;
    Trace.recording := trace && (ops_budget <> None || slice land 1 = 1);
    let done0 = completed () and victims0 = !Rig.victims and words0 = Gc.minor_words () in
    let paused0 = !Rig.paused_ns and pwords0 = !Rig.paused_words in
    let cls = (try W.step w with Rig.Unit_failed _ -> -1) in
    let t1 = Clock.now_ns () in
    let busy = t1 - t0 - (!Rig.paused_ns - paused0) in
    let dops = completed () - done0 in
    if cls >= 0 && not !Trace.recording then begin
      let times, ops_c =
        match Hashtbl.find_opt classes cls with
        | Some c -> c
        | None ->
          let c = (Stats.create (), ref 0) in
          Hashtbl.add classes cls c;
          c
      in
      Stats.add times (float_of_int busy);
      ops_c := !ops_c + dops
    end;
    if !Rig.ops >= W.heap_ops then take_heap ();
    if !Trace.recording then begin
      on_ns := !on_ns + busy;
      on_ops := !on_ops + dops;
      on_victims := !on_victims + (!Rig.victims - victims0)
    end
    else begin
      off_ns := !off_ns + busy;
      off_ops := !off_ops + dops
    end;
    if (not trace) || ops_budget <> None || not !Trace.recording then begin
      alloc_words :=
        !alloc_words +. (Gc.minor_words () -. words0) -. (!Rig.paused_words -. pwords0);
      alloc_ops := !alloc_ops + dops
    end;
    (match ops_budget with
    | Some n -> if !Rig.ops >= n then continue := false
    | None -> if t1 - !Rig.paused_ns >= deadline then continue := false);
    if !continue && W.exhausted w then begin
      stop_reason := "signer budget";
      continue := false
    end
  done;
  Trace.recording := false;
  take_heap ();
  let elapsed = Clock.seconds_since t_start -. (float_of_int !Rig.paused_ns /. 1e9) in
  let ops = !Rig.ops in
  let d_cycles = cycles () - cycles0 and d_gen = generation () - gen0 in
  let d_written = Obs.written () - written0 in
  (* --- correctness ---------------------------------------------------- *)
  W.check w;
  List.iteri
    (fun i m ->
      List.iter
        (fun v ->
          Rig.check_fail
            (Format.asprintf "monitor %d: invariant: %a" i Tyche.Invariants.pp_violation v))
        (Tyche.Invariants.check_all m);
      let r = Tyche.Fsck.check m in
      if not (Tyche.Fsck.ok r) then
        Rig.check_fail (Format.asprintf "monitor %d: fsck: %a" i Tyche.Fsck.pp r))
    monitors;
  (match Obs.check () with Ok () -> () | Error e -> Rig.check_fail ("obs: " ^ e));
  if !Rig.check_failures <> [] then begin
    List.iter (fun m -> prerr_endline ("perfbench: check failed: " ^ m)) (List.rev !Rig.check_failures);
    exit 1
  end;
  (* --- report -------------------------------------------------------- *)
  let lc_p, lc_tail, lc_n = Stats.tail Rig.lifecycle_us in
  let rv_p, rv_tail, rv_n = Stats.tail Rig.revoke_us in
  let dl_p, dl_tail, dl_n = Stats.tail Rig.delegate_rt_us in
  let failed_ratio = per !Rig.failed ops in
  let wire_per_mig = per !Rig.wire_bytes_migrated !Rig.migrations in
  let commit = Option.value (arg "commit") ~default:"unknown" in
  let nproc = Option.value (arg "nproc") ~default:"unknown" in
  Printf.printf
    "perfbench: workload=%s seed=%d seconds=%d trace=%d ops=%d failed=%d elapsed=%.3fs stop=%s\n"
    name seed seconds (if trace then 1 else 0) ops !Rig.failed elapsed !stop_reason;
  List.iter (fun f -> Printf.printf "perfbench: first failure: %s\n" f) (List.rev !Rig.first_failures);
  Printf.printf
    "perfbench-provenance: {\"commit\": %S, \"nproc\": %S, \"ocaml\": %S, \"workload\": %S, \
     \"seed\": %d, \"signer_height\": %d, \"store\": %S, \"setups\": %d, \"stop\": %S, \
     \"heap_ops\": %d}\n"
    commit nproc Sys.ocaml_version name seed (signer_height name) store_kind setups !stop_reason
    (min ops W.heap_ops);
  Printf.printf
    "perfbench-detail: {\"failed_op_ratio\": %s, \"lifecycle_p50_us\": %s, \
     \"call_ret_p50_ns\": %s, \"revoke_p50_us\": %s, \"revoke_tail_us\": %s, \
     \"revoke_ns_per_victim\": %s, \
     \"attest_p50_us\": %s, \
     \"delegate_rt_p50_us\": %s, \"delegate_rt_tail_us\": %s, \"delegate_rt_tail_pct\": %g, \
     \"delegate_rt_samples\": %d, \"migrate_p50_ms\": %s, \"wire_bytes_per_migration\": %s, \
     \"migrations\": %d, \"lifecycle_tail_pct\": %g, \"lifecycle_samples\": %d, \
     \"revoke_tail_pct\": %g, \"revoke_samples\": %d, \"call_ret_samples\": %d, \
     \"attestations_verified\": %d, \"receipts_verified\": %d, \"heap_peak_end_mb\": %s, \"setup_s_each\": [%s], \
     \"ops_per_s_mean\": %s, \"lifecycle_tail_us\": %s}\n"
    (json_num failed_ratio) (json_num (Stats.median Rig.lifecycle_us))
    (json_num (Stats.median Rig.call_ret_ns)) (json_num (Stats.median Rig.revoke_us))
    (json_num rv_tail) (json_num (Stats.median Rig.revoke_ns_per_victim)) (json_num (Stats.median Rig.attest_us))
    (json_num (Stats.median Rig.delegate_rt_us)) (json_num dl_tail) dl_p dl_n
    (json_num (Stats.median Rig.migrate_ms)) (json_num wire_per_mig) !Rig.migrations lc_p lc_n
    rv_p rv_n (Stats.count Rig.call_ret_ns) !Rig.attestations_checked !Rig.receipts_checked
    (json_num (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6))
    (String.concat ", " (List.map (fun s -> json_num (Rig.split_total s)) splits))
    (json_num (float_of_int (completed ()) /. elapsed)) (json_num lc_tail);
  let metrics =
    if not trace then
      [ ("setup_s", "s", setup_s);
        ("ops_per_s", "1/s", steady_ops_per_s classes);
        ("sim_cycles_per_op", "cycles", per d_cycles ops);
        ("heap_peak_mb", "MB",
         float_of_int (Option.get !heap_words * (Sys.word_size / 8)) /. 1e6) ]
    else begin
      let st n = Hashtbl.find_opt Trace.stats n in
      let self_per names =
        let self, count =
          List.fold_left
            (fun (s, c) n ->
              match st n with Some x -> (s + x.Trace.self_ns, c + x.Trace.count) | None -> (s, c))
            (0, 0) names
        in
        per self count
      in
      let count n = match st n with Some x -> x.Trace.count | None -> 0 in
      let incl n = match st n with Some x -> x.Trace.incl_ns | None -> 0 in
      let layer l = Trace.layer_self.(Trace.layer_index l) in
      let root_total = Array.fold_left ( + ) 0 Trace.layer_self in
      let revoke_roots = [ "api.revoke"; "fleet.revoke" ] in
      let in_revokes f = List.fold_left (fun acc root -> acc + f root) 0 revoke_roots in
      let counter n = Obs.Metrics.counter_value n in
      let tel1 = telemetry () in
      let sum_tel f l = List.fold_left (fun acc x -> acc + f x) 0 l in
      let hits = sum_tel (fun x -> x.Tyche.Monitor.body_cache_hits) tel1
                 - sum_tel (fun x -> x.Tyche.Monitor.body_cache_hits) tel0 in
      let misses = sum_tel (fun x -> x.Tyche.Monitor.body_cache_misses) tel1
                   - sum_tel (fun x -> x.Tyche.Monitor.body_cache_misses) tel0 in
      let kp_hits = sum_tel (fun x -> x.Tyche.Monitor.keypool_hits) tel1 in
      let kp_misses = sum_tel (fun x -> x.Tyche.Monitor.keypool_misses) tel1 in
      let gauge g =
        List.fold_left
          (fun acc m ->
            let r = Tyche.Monitor.observe m in
            acc + Option.value (List.assoc_opt g r.Obs.r_gauges) ~default:0)
          0 monitors
      in
      let fleet_ops = count "fleet.delegate" + count "fleet.revoke" + count "migrate" in
      let net_bytes, net_msgs =
        match W.network w with
        | Some n -> (Distributed.Network.total_bytes n, Distributed.Network.total_messages n)
        | None -> (0, 0)
      in
      let ops_on_s = fper (float_of_int !on_ops) !on_ns *. 1e9 in
      let ops_off_s = fper (float_of_int !off_ops) !off_ns *. 1e9 in
      (* Latencies whose run-to-run spread on a noisy host exceeded the
         end-to-end bound; sampled in the untraced slices only. *)
      [ ("lifecycle_p50_us", "us", Stats.median Rig.lifecycle_us);
        ("lifecycle_tail_us", "us", lc_tail);
        ("revoke_tail_us", "us", rv_tail);
        ("call_ret_p50_ns", "ns", Stats.median Rig.call_ret_ns);
        ("revoke_p50_us", "us", Stats.median Rig.revoke_us);
        ("revoke_ns_per_victim", "ns", Stats.median Rig.revoke_ns_per_victim);
        ("api.self_us_per_op", "us", per (layer Trace.Api) !on_ops /. 1e3);
        ("api.self_us.domain", "us",
         self_per [ "api.create_domain"; "api.set_entry_point"; "api.set_flush_policy";
                    "api.mark_measured"; "api.seal"; "api.destroy" ] /. 1e3);
        ("api.self_us.cap", "us", self_per [ "api.share"; "api.grant"; "api.split"; "api.carve" ] /. 1e3);
        ("api.self_us.revoke", "us", self_per [ "api.revoke" ] /. 1e3);
        ("api.self_us.transition", "us", self_per [ "api.call"; "api.return" ] /. 1e3);
        ("api.self_us.attest", "us", self_per [ "api.attest"; "api.attest_batch" ] /. 1e3);
        ("api.alloc_words_per_op", "words", fper !alloc_words !alloc_ops);
        ("cap.nodes", "count",
         float_of_int
           (List.fold_left (fun acc m -> acc + Cap.Captree.node_count (Tyche.Monitor.tree m)) 0 monitors));
        ("cap.generation_bumps_per_op", "count", per d_gen ops);
        ("cap.cascade_victims", "count", per !Rig.victims !Rig.revokes);
        ("backend.apply_us_per_effect", "us", self_per [ "backend.attach"; "backend.detach" ] /. 1e3);
        ("backend.attach_per_victim", "count",
         per (in_revokes (fun root -> Trace.root_count ~root "backend.attach")) !on_victims);
        ("backend.detach_per_victim", "count",
         per (in_revokes (fun root -> Trace.root_count ~root "backend.detach")) !on_victims);
        ("backend.commit_us", "us", self_per [ "backend.commit" ] /. 1e3);
        ("backend.transition_ns", "ns", self_per [ "backend.transition" ]);
        ("backend.validate_us", "us", self_per [ "backend.validate" ] /. 1e3);
        ("backend.share_of_revoke", "ratio",
         per (in_revokes (fun root -> Trace.root_self ~root Trace.Backend)) (in_revokes incl));
        ("backend.share_of_ops", "ratio", per (layer Trace.Backend) root_total);
        ("hw.sim_cycles_per_op", "cycles", per d_cycles ops);
        ("hw.ept_writes_per_op", "count", per (counter "op.ept.map" + counter "op.ept.unmap") ops);
        ("hw.pmp_writes_per_op", "count", per (counter "op.pmp.reprogram") ops);
        ("hw.iommu_writes_per_op", "count",
         per (counter "op.iommu.grant" + counter "op.iommu.revoke") ops);
        ("hw.resident_lines_at_revoke", "count", per !Rig.resident_lines_at_revoke !Rig.revokes);
        ("taint.pages", "count", float_of_int (gauge "taint.pages"));
        ("taint.lines", "count", float_of_int (gauge "taint.lines"));
        ("taint.tlb", "count", float_of_int (gauge "taint.tlb"));
        ("taint.leaks", "count", float_of_int (gauge "taint.leaks"));
        ("taint.sanctioned", "count", float_of_int (gauge "taint.sanctioned"));
        ("persist.append_us", "us", self_per [ "persist.append" ] /. 1e3);
        ("persist.fsync_us", "us", self_per [ "persist.fsync" ] /. 1e3);
        ("persist.bytes_per_op", "B", per !Trace.persist_bytes !on_ops);
        ("persist.fsyncs_per_op", "count", per !Trace.persist_fsyncs !on_ops);
        ("persist.ckpt_pause_us", "us",
         per (Obs.Metrics.histogram_sum "persist.ckpt.pause_ns")
           (Obs.Metrics.histogram_count "persist.ckpt.pause_ns") /. 1e3);
        ("persist.share_of_ops", "ratio", per (layer Trace.Persist) root_total);
        ("attest.memo_hit_ratio", "ratio", per hits (hits + misses));
        ("attest_p50_us", "us", Stats.median Rig.attest_us);
        ("verifier.verify_us", "us", Stats.median Rig.verify_us);
        ("crypto.keypool_hit_ratio", "ratio", per kp_hits (kp_hits + kp_misses));
        ("setup.machine_s", "s", med (fun s -> s.Rig.machine_s));
        ("setup.tpm_s", "s", med (fun s -> s.Rig.tpm_s));
        ("setup.measured_boot_s", "s", med (fun s -> s.Rig.boot_s));
        ("setup.monitor_boot_s", "s", med (fun s -> s.Rig.monitor_boot_s));
        ("setup.populate_s", "s", med (fun s -> s.Rig.populate_s));
        ("fleet.self_us", "us", per (layer Trace.Distributed) fleet_ops /. 1e3);
        ("fleet.pump_rounds_per_op", "count", per !Rig.pump_rounds fleet_ops);
        ("net.bytes_per_op", "B", per net_bytes ops);
        ("net.messages_per_op", "count", per net_msgs ops);
        ("migrate.dedup_ratio", "ratio",
         if !Rig.migrations = 0 then 0.
         else
           1. -. per (counter "migrate.chunks_tx")
                   (!Rig.migrations * Fleet_migrate.enclave_pages));
        ("fleet.retries", "count", float_of_int (counter "fleet.retries"));
        ("distributed.share_of_ops", "ratio", per (layer Trace.Distributed) root_total);
        ("delegate_rt_p50_us", "us", Stats.median Rig.delegate_rt_us);
        ("delegate_rt_tail_us", "us", dl_tail);
        ("migrate_p50_ms", "ms", Stats.median Rig.migrate_ms);
        ("wire_bytes_per_migration", "B", wire_per_mig);
        ("obs.events_per_op", "count", per d_written ops);
        ("obs.tracing_overhead", "ratio",
         if ops_on_s > 0. && ops_off_s > 0. then (ops_off_s /. ops_on_s) -. 1. else 0.);
        ("failed_op_ratio", "ratio", failed_ratio) ]
    end
  in
  (match arg "trace-out" with
  | Some path when trace -> Trace.write_log path
  | _ -> ());
  Printf.printf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n" ops
    !Rig.failed (metrics_json metrics)
