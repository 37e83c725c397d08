(* What every workload shares: op accounting, the sample sets the
   report reads, the guest-trap call path, and timed node set-up. *)

(* --- op accounting ----------------------------------------------------- *)

(* A failed op aborts the unit of work it belongs to (a tenant, a
   cascade episode, a fleet round); the loop goes on with the next. *)
exception Unit_failed of string

let ops = ref 0
let failed = ref 0
let first_failures = ref []

(* Fails the op just attempted: either inside [op], or in a check of
   an op's outcome right after it returned. Either way the op is
   already counted in [ops], so [failed] never exceeds [ops]. *)
let fail what msg =
  incr failed;
  if List.length !first_failures < 5 then
    first_failures := Printf.sprintf "%s: %s" what msg :: !first_failures;
  raise (Unit_failed what)

(* A step that fails before it could make its first monitor call (a
   precondition the workload could not meet) is an attempted op that
   failed. *)
let fail_before_op what msg =
  incr ops;
  fail what msg

(* One monitor op: counted as attempted, failed on [Error] or on an
   escaping exception, and recorded as a root span of [layer]. *)
let op layer name (f : unit -> ('a, string) result) : 'a =
  incr ops;
  Trace.op_id := !ops;
  match Trace.span layer name f with
  | Ok v -> v
  | Error msg -> fail name msg
  | exception (Unit_failed _ as e) -> raise e
  | exception e -> fail name (Printexc.to_string e)

(* The guest-trap ABI: every call the [Api] has goes through
   encode -> decode -> dispatch, as a VMCALL/ecall would. *)
let call m ~caller ~core (c : Tyche.Api.call) : Tyche.Api.result_value =
  op Trace.Api ("api." ^ Tyche.Api.op_name c) (fun () ->
      match Tyche.Api.decode (Tyche.Api.encode c) with
      | Error e -> Error ("wire decode: " ^ e)
      | Ok c -> Result.map_error Tyche.Monitor.error_to_string (Tyche.Api.dispatch m ~caller ~core c))

let bad_result what = fail what "unexpected result shape"

let call_unit m ~caller ~core c =
  match call m ~caller ~core c with Tyche.Api.R_unit -> () | _ -> bad_result (Tyche.Api.op_name c)

let call_cap m ~caller ~core c =
  match call m ~caller ~core c with Tyche.Api.R_cap x -> x | _ -> bad_result (Tyche.Api.op_name c)

let call_domain m ~caller ~core c =
  match call m ~caller ~core c with
  | Tyche.Api.R_domain x -> x
  | _ -> bad_result (Tyche.Api.op_name c)

(* Direct monitor entry points the guest ABI does not carry. *)
let monitor_op name f =
  op Trace.Api name (fun () -> Result.map_error Tyche.Monitor.error_to_string (f ()))


(* --- seeded streams ------------------------------------------------------ *)

(* A deck of the indices 0 .. n-1, drawn in a fresh seeded order on
   every pass: the stream's order comes from the seed, while its mix —
   which fanouts, images and shapes a run sees, and how often — does
   not drift from seed to seed. *)
type deck = { deck_rng : Random.State.t; cards : int array; mutable next : int }

let deck rng n = { deck_rng = rng; cards = Array.init n Fun.id; next = n }

let draw d =
  let n = Array.length d.cards in
  if d.next >= n then begin
    for i = n - 1 downto 1 do
      let j = Random.State.int d.deck_rng (i + 1) in
      let x = d.cards.(i) in
      d.cards.(i) <- d.cards.(j);
      d.cards.(j) <- x
    done;
    d.next <- 0
  end;
  let c = d.cards.(d.next) in
  d.next <- d.next + 1;
  c

(* --- samples ----------------------------------------------------------- *)

(* Latency samples are taken only while span recording is off, so the
   traced run's latencies are those of its untraced slices. *)
let sample s v = if not !Trace.recording then Stats.add s v

let lifecycle_us = Stats.create ()
let call_ret_ns = Stats.create ()
let revoke_us = Stats.create ()
let revoke_ns_per_victim = Stats.create ()
let attest_us = Stats.create ()
let verify_us = Stats.create ()
let delegate_rt_us = Stats.create ()
let migrate_ms = Stats.create ()
let victims = ref 0
let revokes = ref 0
let resident_lines_at_revoke = ref 0
let wire_bytes_migrated = ref 0
let migrations = ref 0
let pump_rounds = ref 0
let attestations_checked = ref 0
let receipts_checked = ref 0

(* Correctness failures found while running: each fails the run. *)
let check_failures = ref []
let check_fail msg = check_failures := msg :: !check_failures

(* Guest loads and stores are instructions the hardware checks, not
   monitor ops: they are not counted in [ops], and a refused access to
   memory the domain holds fails the run's checks. *)
let guest f =
  match f () with
  | Ok v -> v
  | Error e ->
    check_fail ("guest access refused: " ^ Tyche.Monitor.error_to_string e);
    raise (Unit_failed "guest access")

(* A timed monitor transition pair: call into [target], run [body]
   inside it, return. The call and the return are timed; the body is
   not. *)
let call_ret m ~core ~caller ~target body =
  let t0 = Clock.now_ns () in
  ignore (call m ~caller ~core (Tyche.Api.Call { target }));
  let t1 = Clock.now_ns () in
  body ();
  let t2 = Clock.now_ns () in
  ignore (call m ~caller:target ~core Tyche.Api.Return);
  let t3 = Clock.now_ns () in
  sample call_ret_ns (float_of_int (t1 - t0 + (t3 - t2)))

(* A timed revocation on [m]; victims are the capability nodes it
   removed from [m]'s tree. *)
let timed_revoke m f =
  let tree = Tyche.Monitor.tree m in
  let before = Cap.Captree.node_count tree in
  resident_lines_at_revoke :=
    !resident_lines_at_revoke + Hw.Cache.resident_lines (Tyche.Monitor.machine m).Hw.Machine.cache;
  let t0 = Clock.now_ns () in
  f ();
  let ns = float_of_int (Clock.now_ns () - t0) in
  let v = max 1 (before - Cap.Captree.node_count tree) in
  incr revokes;
  victims := !victims + v;
  sample revoke_us (ns /. 1e3);
  sample revoke_ns_per_victim (ns /. float_of_int v)

let revoke m ~caller ~cap =
  timed_revoke m (fun () -> call_unit m ~caller ~core:0 (Tyche.Api.Revoke { cap }))

(* --- nodes ------------------------------------------------------------- *)

let firmware = "perfbench-firmware-1.0"
let loader = "perfbench-loader-1.0"
let monitor_image = "tyche-monitor-perfbench"
let os = Tyche.Domain.initial

(* Set-up time by phase, in seconds, summed over a set-up's nodes. *)
type setup_split = {
  mutable machine_s : float;
  mutable tpm_s : float;
  mutable boot_s : float;
  mutable monitor_boot_s : float;
  mutable populate_s : float;
}

let new_split () =
  { machine_s = 0.; tpm_s = 0.; boot_s = 0.; monitor_boot_s = 0.; populate_s = 0. }

let split_total s = s.machine_s +. s.tpm_s +. s.boot_s +. s.monitor_boot_s +. s.populate_s

type node = {
  machine : Hw.Machine.t;
  tpm : Rot.Tpm.t;
  monitor : Tyche.Monitor.t;
  store : Persist.Store.t option;
}

let timed f =
  let t0 = Clock.now_ns () in
  let v = f () in
  (v, Clock.seconds_since t0)

(* Allocate the machine, manufacture the TPM, measured-boot the
   monitor image and boot the monitor. With [trace] the backend and the
   store are wrapped before the program sees them. *)
let boot_node ~split ~trace ~arch ~cores ~mem_size ~seed ~signer_height ~store () =
  let machine, s = timed (fun () -> Hw.Machine.create ~arch ~cores ~mem_size ()) in
  split.machine_s <- split.machine_s +. s;
  let rng = Crypto.Rng.create ~seed:(Int64.of_int seed) in
  let tpm, s = timed (fun () -> Rot.Tpm.create rng) in
  split.tpm_s <- split.tpm_s +. s;
  let report, s =
    timed (fun () -> Rot.Boot.measured_boot tpm machine ~firmware ~loader ~monitor_image)
  in
  split.boot_s <- split.boot_s +. s;
  let monitor_range = report.Rot.Boot.monitor_range in
  let monitor, s =
    timed (fun () ->
        let backend =
          match arch with
          | Hw.Cpu.X86_64 -> Backend_x86.create machine ()
          | Hw.Cpu.Riscv64 -> Backend_riscv.create machine ~monitor_range ()
        in
        let backend = if trace then Trace.wrap_backend backend else backend in
        Tyche.Monitor.boot ~signer_height machine ~backend ~tpm ~rng ~monitor_range)
  in
  split.monitor_boot_s <- split.monitor_boot_s +. s;
  let store =
    Option.map (fun s -> if trace then Trace.wrap_store s else s) store
  in
  { machine; tpm; monitor; store }

(* The remote verifier's one-time step: check the boot quote and learn
   the monitor's attestation root from it. *)
let establish_trust node ~nonce =
  let quote = Tyche.Monitor.boot_quote node.monitor ~nonce in
  let root = Tyche.Monitor.attestation_root node.monitor in
  match
    Verifier.Chain.verify_boot ~tpm_root:(Rot.Tpm.endorsement_root node.tpm)
      ~expected_pcrs:(Rot.Boot.expected_pcrs ~firmware ~loader ~monitor_image)
      ~claimed_monitor_root:root ~nonce quote
  with
  | Ok () -> root
  | Error e -> failwith ("perfbench: boot chain does not verify: " ^ e)

(* The verifier's check of one report: signature under the trusted
   root, freshness, then the tenant's policy. Timed into [verify_us];
   a rejection is a correctness failure. *)
let check_report ~root ~nonce ~policy (att : Tyche.Attestation.t) =
  let t0 = Clock.now_ns () in
  let verdict =
    match Verifier.Chain.verify_domain ~monitor_root:root ~nonce att with
    | Error e -> Error [ e ]
    | Ok () -> Verifier.Policy.check policy att
  in
  Stats.add verify_us (float_of_int (Clock.now_ns () - t0) /. 1e3);
  incr attestations_checked;
  match verdict with
  | Ok () -> ()
  | Error es ->
    check_fail
      (Printf.sprintf "attestation of %s rejected: %s" att.Tyche.Attestation.domain_name
         (String.concat "; " es))

(* Time and allocation spent with the clock paused: the timed phase
   leaves both out of its figures. *)
let paused_ns = ref 0
let paused_words = ref 0.

let paused f =
  let t0 = Clock.now_ns () and w0 = Gc.minor_words () in
  let tracing = !Trace.recording in
  Trace.recording := false;
  Fun.protect f ~finally:(fun () ->
      Trace.recording := tracing;
      paused_words := !paused_words +. (Gc.minor_words () -. w0);
      paused_ns := !paused_ns + (Clock.now_ns () - t0))

(* In deployment the verifier runs on the tenant's machine, not the
   host's: each report is checked as it is handed over, with the clock
   paused, so the verifier's hashing does not count as monitor time
   and the benchmark holds no report after its check. *)
let submit ~root ~nonce ~policy att = paused (fun () -> check_report ~root ~nonce ~policy att)

(* The largest memory capability of [owner] that covers [range]. *)
let cap_over m ~owner range =
  let tree = Tyche.Monitor.tree m in
  List.find
    (fun c ->
      match Cap.Captree.resource tree c with
      | Some (Cap.Resource.Memory r) -> Hw.Addr.Range.includes ~outer:r ~inner:range
      | _ -> false)
    (Tyche.Monitor.caps_of m owner)

let core_cap m core =
  let tree = Tyche.Monitor.tree m in
  List.find
    (fun c -> Cap.Captree.resource tree c = Some (Cap.Resource.Cpu_core core))
    (Tyche.Monitor.caps_of m os)

let page = Hw.Addr.page_size
let range ~base ~pages = Hw.Addr.Range.make ~base ~len:(pages * page)

(* The expected seal measurement of an image: what the tenant's build
   pipeline computes offline and hands its verifier. *)
let expected_measurement ~kind ~entry_offset ~content =
  let r = Hw.Addr.Range.make ~base:0 ~len:(String.length content) in
  Tyche.Measure.domain_digest ~kind ~entry_point:entry_offset ~flush_on_transition:false
    ~ranges:[ (r, Crypto.Sha256.string content) ]
