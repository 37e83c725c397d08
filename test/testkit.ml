(* Shared fixtures for the test suites: booted machines on both
   backends, a tiny enclave image, and result helpers. *)

let ( let* ) = Result.bind
let _ = ( let* )

type world = {
  machine : Hw.Machine.t;
  tpm : Rot.Tpm.t;
  rng : Crypto.Rng.t;
  boot_report : Rot.Boot.report;
  backend : Tyche.Backend_intf.t;
  monitor : Tyche.Monitor.t;
}

let firmware = "firmware-v1"
let loader_blob = "loader-v1"
let monitor_image = "tyche-monitor-image-v1"

let boot_x86 ?(seed = 0x71L) ?(cores = 4) ?(mem_size = 16 * 1024 * 1024) ?(devices = []) ?tlb_strategy () =
  let machine = Hw.Machine.create ~arch:Hw.Cpu.X86_64 ~cores ~mem_size () in
  List.iter (Hw.Machine.attach_device machine) devices;
  let rng = Crypto.Rng.create ~seed in
  let tpm = Rot.Tpm.create rng in
  let boot_report =
    Rot.Boot.measured_boot tpm machine ~firmware ~loader:loader_blob ~monitor_image
  in
  let backend = Backend_x86.create machine ?tlb_strategy () in
  let monitor =
    Tyche.Monitor.boot machine ~backend ~tpm ~rng
      ~monitor_range:boot_report.Rot.Boot.monitor_range
  in
  { machine; tpm; rng; boot_report; backend; monitor }

let boot_riscv ?(seed = 0x51L) ?(cores = 2) ?(mem_size = 16 * 1024 * 1024) ?alloc_strategy () =
  let machine = Hw.Machine.create ~arch:Hw.Cpu.Riscv64 ~cores ~mem_size () in
  let rng = Crypto.Rng.create ~seed in
  let tpm = Rot.Tpm.create rng in
  let boot_report =
    Rot.Boot.measured_boot tpm machine ~firmware ~loader:loader_blob ~monitor_image
  in
  let backend =
    Backend_riscv.create machine ~monitor_range:boot_report.Rot.Boot.monitor_range
      ?alloc_strategy ()
  in
  let monitor =
    Tyche.Monitor.boot machine ~backend ~tpm ~rng
      ~monitor_range:boot_report.Rot.Boot.monitor_range
  in
  { machine; tpm; rng; boot_report; backend; monitor }

(* Crash-restart: rebuild a monitor from [store] alone, onto a fresh
   machine shaped like [w]'s. The measured boot is deterministic, so the
   monitor range matches the crashed machine's. *)
let recover_like w ~store =
  let old = w.machine in
  let machine =
    Hw.Machine.create ~arch:old.Hw.Machine.arch ~cores:(Array.length old.Hw.Machine.cores)
      ~mem_size:(Hw.Physmem.size old.Hw.Machine.mem) ()
  in
  let rng = Crypto.Rng.create ~seed:0x99L in
  let tpm = Rot.Tpm.create rng in
  let br = Rot.Boot.measured_boot tpm machine ~firmware ~loader:loader_blob ~monitor_image in
  let monitor_range = br.Rot.Boot.monitor_range in
  let backend =
    match old.Hw.Machine.arch with
    | Hw.Cpu.X86_64 -> Backend_x86.create machine ()
    | Hw.Cpu.Riscv64 -> Backend_riscv.create machine ~monitor_range ()
  in
  Tyche.Monitor.recover machine ~store ~backend ~tpm ~rng ~monitor_range

(* A sharded federation: [shards] independent x86 worlds behind one
   global namespace. [devices] attach to shard 0 (the sharded monitor
   routes device capabilities there). *)
let boot_sharded ?(seed = 0x71L) ?(shards = 2) ?(cores = 2)
    ?(mem_size = 8 * 1024 * 1024) ?(devices = []) () =
  let rng = Crypto.Rng.create ~seed in
  let mk ~shard =
    let machine = Hw.Machine.create ~arch:Hw.Cpu.X86_64 ~cores ~mem_size () in
    if shard = 0 then List.iter (Hw.Machine.attach_device machine) devices;
    let srng = Crypto.Rng.create ~seed:(Int64.add seed (Int64.of_int (shard * 7919))) in
    let tpm = Rot.Tpm.create srng in
    let report =
      Rot.Boot.measured_boot tpm machine ~firmware ~loader:loader_blob ~monitor_image
    in
    let backend = Backend_x86.create machine () in
    (machine, backend, tpm, srng, report.Rot.Boot.monitor_range)
  in
  Sharded.boot ~shards ~rng ~mk ()

(* The OS's largest memory capability on one shard, as a global id. *)
let sharded_os_memory_cap t ~shard =
  let m = Sharded.shard_monitor t shard in
  let tree = Tyche.Monitor.tree m in
  let size cap =
    match Cap.Captree.resource tree cap with
    | Some (Cap.Resource.Memory r) -> Hw.Addr.Range.len r
    | _ -> 0
  in
  match Tyche.Monitor.caps_of m Tyche.Domain.initial with
  | [] -> Alcotest.fail "domain 0 holds no capabilities on the shard"
  | caps ->
    Sharded.gcap ~shard
      (List.fold_left (fun best c -> if size c > size best then c else best) (List.hd caps) caps)

(* The OS's capability for a (global) core id, as a global id. *)
let sharded_os_core_cap t core =
  let shard = core / Sharded.cores_per_shard t in
  let local = core mod Sharded.cores_per_shard t in
  let m = Sharded.shard_monitor t shard in
  let tree = Tyche.Monitor.tree m in
  Sharded.gcap ~shard
    (List.find
       (fun cap -> Cap.Captree.resource tree cap = Some (Cap.Resource.Cpu_core local))
       (Tyche.Monitor.caps_of m Tyche.Domain.initial))

let os = Tyche.Domain.initial

(* The OS's largest memory capability (carves keep splitting it, so
   re-query rather than caching). *)
let os_memory_cap w =
  let tree = Tyche.Monitor.tree w.monitor in
  let size cap =
    match Cap.Captree.resource tree cap with
    | Some (Cap.Resource.Memory r) -> Hw.Addr.Range.len r
    | _ -> 0
  in
  match Tyche.Monitor.caps_of w.monitor os with
  | [] -> Alcotest.fail "domain 0 holds no capabilities"
  | caps -> List.fold_left (fun best c -> if size c > size best then c else best) (List.hd caps) caps

let os_core_cap w core =
  let tree = Tyche.Monitor.tree w.monitor in
  List.find
    (fun cap -> Cap.Captree.resource tree cap = Some (Cap.Resource.Cpu_core core))
    (Tyche.Monitor.caps_of w.monitor os)

let get_ok ?(msg = "expected Ok") = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" msg (Tyche.Monitor.error_to_string e)

let get_ok_str ?(msg = "expected Ok") = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" msg e

let expect_error = function
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an error"

(* A small two-segment image: a page of "code" and a page of shared IO. *)
let tiny_image ?(name = "tiny") ?(shared_page = true) () =
  let b = Image.Builder.create ~name in
  let b =
    Image.Builder.add_segment b ~name:".text" ~vaddr:0
      ~data:(String.init 100 (fun i -> Char.chr (65 + (i mod 26))))
      ~perm:Hw.Perm.rx ()
  in
  let b =
    Image.Builder.add_segment b ~name:".data" ~vaddr:4096
      ~data:"initialized-data" ~perm:Hw.Perm.rw ()
  in
  let b =
    if shared_page then
      Image.Builder.add_segment b ~name:".shared" ~vaddr:8192 ~data:"io"
        ~perm:Hw.Perm.rw ~visibility:Image.Shared ~measured:false ()
    else b
  in
  Result.get_ok (Image.Builder.finish (Image.Builder.set_entry b 0))

let contains_substring s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let check_no_violations monitor =
  match Tyche.Invariants.check_all monitor with
  | [] -> ()
  | vs ->
    Alcotest.failf "invariant violations: %s"
      (String.concat "; "
         (List.map (Format.asprintf "%a" Tyche.Invariants.pp_violation) vs))

(* --- chaos-seed replay conventions -----------------------------------

   Both chaos drivers (test_fault's fault-plan sweeps and
   test_persist_chaos's crash-restart runs) announce their seed and
   report failures through these helpers, so a red run always prints
   the same one-line replay recipe regardless of which driver found it
   (see README, "Reproducing a chaos failure"). *)

let chaos_seed ~default =
  match Sys.getenv_opt "TYCHE_FAULT_SEED" with
  | Some s -> (match int_of_string_opt s with Some n -> n | None -> default)
  | None -> default

let chaos_replay_line ~suite ~seed =
  Printf.sprintf "chaos[%s]: failing seed=%d — replay with: TYCHE_FAULT_SEED=%d dune build @chaos"
    suite seed seed

let chaos_banner ?(extra = "") ~suite ~seed () =
  Printf.printf "chaos[%s]: seed=%d%s (replay: TYCHE_FAULT_SEED=%d dune build @chaos)\n%!"
    suite seed extra seed

(* The unbalanced-span audit every chaos driver (and the [@coverage]
   gate through them) runs after its workload: instrumentation must
   stay balanced even when injected faults unwind mid-span. *)
let chaos_check_obs ~suite ~seed ~where =
  match Obs.check () with
  | Ok () -> ()
  | Error msg ->
    prerr_endline (chaos_replay_line ~suite ~seed);
    Printf.eprintf "FAIL: %s: obs self-audit: %s\n%!" where msg;
    exit 1
