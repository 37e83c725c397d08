(* tyche-cli: poke at a simulated Tyche machine from the command line.

   Subcommands:
     boot         boot a machine and print the chain-of-trust report
     fig4         build the Fig. 4 deployment and print the region map
     attest       create an enclave and print + verify its attestation
     transitions  run a call/ret loop and print path statistics
     recover      run a workload, crash it at a fault point, recover
     fsck         recover from an on-disk store and audit the result
     migrate      live-migrate a sealed enclave between two machines
     stats        run a journaled workload, print the observability report
     trace        run a journaled workload, dump the trace ring as JSON lines
     loc          print the trusted-computing-base line counts *)

open Cmdliner

let firmware = "oem-firmware-2.1"
let loader_blob = "grub-ish-loader-1.0"
let monitor_image = "tyche-monitor-release-0.1"
let page = Hw.Addr.page_size

type world = {
  machine : Hw.Machine.t;
  tpm : Rot.Tpm.t;
  report : Rot.Boot.report;
  monitor : Tyche.Monitor.t;
}

let boot_world ~arch ~cores ~mem_mib =
  let machine = Hw.Machine.create ~arch ~cores ~mem_size:(mem_mib * 1024 * 1024) () in
  let rng = Crypto.Rng.create ~seed:2026L in
  let tpm = Rot.Tpm.create rng in
  let report =
    Rot.Boot.measured_boot tpm machine ~firmware ~loader:loader_blob ~monitor_image
  in
  let backend =
    match arch with
    | Hw.Cpu.X86_64 -> Backend_x86.create machine ()
    | Hw.Cpu.Riscv64 ->
      Backend_riscv.create machine ~monitor_range:report.Rot.Boot.monitor_range ()
  in
  let monitor =
    Tyche.Monitor.boot machine ~backend ~tpm ~rng
      ~monitor_range:report.Rot.Boot.monitor_range
  in
  { machine; tpm; report; monitor }

let ok = function
  | Ok v -> v
  | Error e -> Fmt.failwith "%s" (Tyche.Monitor.error_to_string e)

let ok_str = function Ok v -> v | Error e -> failwith e

let os = Tyche.Domain.initial

let os_memory_cap w =
  let tree = Tyche.Monitor.tree w.monitor in
  let size cap =
    match Cap.Captree.resource tree cap with
    | Some (Cap.Resource.Memory r) -> Hw.Addr.Range.len r
    | _ -> 0
  in
  match Tyche.Monitor.caps_of w.monitor os with
  | [] -> failwith "no capabilities"
  | caps ->
    List.fold_left (fun best c -> if size c > size best then c else best) (List.hd caps) caps

(* Common options *)

let arch =
  let parse = function
    | "x86" | "x86_64" -> Ok Hw.Cpu.X86_64
    | "riscv" | "riscv64" -> Ok Hw.Cpu.Riscv64
    | s -> Error (`Msg (Printf.sprintf "unknown architecture %S (x86|riscv)" s))
  in
  let print fmt = function
    | Hw.Cpu.X86_64 -> Format.pp_print_string fmt "x86"
    | Hw.Cpu.Riscv64 -> Format.pp_print_string fmt "riscv"
  in
  Arg.(value & opt (conv (parse, print)) Hw.Cpu.X86_64 & info [ "arch" ] ~docv:"ARCH"
         ~doc:"Architecture to simulate: x86 (VT-x/EPT) or riscv (M-mode/PMP).")

let cores =
  Arg.(value & opt int 4 & info [ "cores" ] ~docv:"N" ~doc:"Number of CPU cores.")

let mem_mib =
  Arg.(value & opt int 32 & info [ "mem" ] ~docv:"MIB" ~doc:"Physical memory in MiB.")

(* boot *)

let cmd_boot =
  let run arch cores mem_mib =
    let w = boot_world ~arch ~cores ~mem_mib in
    Printf.printf "booted %s machine: %d cores, %d MiB\n"
      (match arch with Hw.Cpu.X86_64 -> "x86_64" | Hw.Cpu.Riscv64 -> "riscv64")
      cores mem_mib;
    Printf.printf "monitor at %s\n"
      (Format.asprintf "%a" Hw.Addr.Range.pp w.report.Rot.Boot.monitor_range);
    Printf.printf "PCR  0 (firmware) = %s\n"
      (Crypto.Sha256.to_hex (Rot.Tpm.read_pcr w.tpm 0));
    Printf.printf "PCR  4 (loader)   = %s\n"
      (Crypto.Sha256.to_hex (Rot.Tpm.read_pcr w.tpm 4));
    Printf.printf "PCR 17 (monitor)  = %s\n"
      (Crypto.Sha256.to_hex (Rot.Tpm.read_pcr w.tpm Rot.Tpm.drtm_pcr));
    Printf.printf "PCR 18 (key bind) = %s\n"
      (Crypto.Sha256.to_hex (Rot.Tpm.read_pcr w.tpm Tyche.Monitor.key_binding_pcr));
    let golden = Rot.Boot.expected_pcrs ~firmware ~loader:loader_blob ~monitor_image in
    let all_match =
      List.for_all
        (fun (pcr, v) -> Crypto.Sha256.equal v (Rot.Tpm.read_pcr w.tpm pcr))
        golden
    in
    Printf.printf "golden PCR values match: %b\n" all_match;
    match Tyche.Invariants.check_all w.monitor with
    | [] -> print_endline "system invariants: all hold"
    | vs ->
      List.iter
        (fun v -> Format.printf "VIOLATION %a@." Tyche.Invariants.pp_violation v)
        vs
  in
  Cmd.v (Cmd.info "boot" ~doc:"Boot a measured machine and print the trust report.")
    Term.(const run $ arch $ cores $ mem_mib)

(* fig4 *)

let cmd_fig4 =
  let run arch =
    let w = boot_world ~arch ~cores:2 ~mem_mib:32 in
    let m = w.monitor in
    let mk name base kind =
      let d = ok (Tyche.Monitor.create_domain m ~caller:os ~name ~kind) in
      let piece =
        ok
          (Tyche.Monitor.carve m ~caller:os ~cap:(os_memory_cap w)
             ~subrange:(Hw.Addr.Range.make ~base ~len:page))
      in
      let _ =
        ok
          (Tyche.Monitor.grant m ~caller:os ~cap:piece ~to_:d ~rights:Cap.Rights.full
             ~cleanup:Cap.Revocation.Zero)
      in
      d
    in
    let vm = mk "saas-vm" 0x400000 Tyche.Domain.Confidential_vm in
    let engine = mk "crypto-engine" 0x401000 Tyche.Domain.Enclave in
    let app = mk "saas-app" 0x402000 Tyche.Domain.Enclave in
    let gpu = ok (Tyche.Monitor.create_domain m ~caller:os ~name:"gpu" ~kind:Tyche.Domain.Io_domain) in
    (* vm<->engine and app<->gpu shared pages. *)
    let share_from owner base to_ =
      let cap =
        List.find
          (fun c ->
            match Cap.Captree.resource (Tyche.Monitor.tree m) c with
            | Some (Cap.Resource.Memory r) -> Hw.Addr.Range.contains r base
            | _ -> false)
          (Tyche.Monitor.caps_of m owner)
      in
      ignore
        (ok
           (Tyche.Monitor.share m ~caller:owner ~cap ~to_ ~rights:Cap.Rights.rw
              ~cleanup:Cap.Revocation.Zero ()))
    in
    share_from vm 0x400000 engine;
    share_from app 0x402000 gpu;
    let names =
      [ (os, "os"); (vm, "saas-vm"); (engine, "crypto-engine"); (app, "saas-app");
        (gpu, "gpu") ]
    in
    Printf.printf "%-24s %-5s %s\n" "physical region" "refs" "holders";
    List.iter
      (fun (seg, holders) ->
        if Hw.Addr.Range.base seg >= 0x400000 && Hw.Addr.Range.base seg < 0x500000 then
          Printf.printf "%-24s %-5d %s\n"
            (Format.asprintf "%a" Hw.Addr.Range.pp seg)
            (List.length holders)
            (String.concat ", "
               (List.map (fun d -> Option.value ~default:(string_of_int d) (List.assoc_opt d names)) holders)))
      (Cap.Captree.region_map (Tyche.Monitor.tree m))
  in
  Cmd.v (Cmd.info "fig4" ~doc:"Build a small deployment and print the Fig. 4 region map.")
    Term.(const run $ arch)

(* attest *)

let cmd_attest =
  let regions =
    Arg.(value & opt int 3 & info [ "regions" ] ~docv:"N" ~doc:"Memory regions to grant.")
  in
  let run arch regions =
    let w = boot_world ~arch ~cores:2 ~mem_mib:32 in
    let m = w.monitor in
    let d = ok (Tyche.Monitor.create_domain m ~caller:os ~name:"cli-enclave" ~kind:Tyche.Domain.Enclave) in
    for i = 0 to regions - 1 do
      let base = 0x400000 + (i * 2 * page) in
      let piece =
        ok
          (Tyche.Monitor.carve m ~caller:os ~cap:(os_memory_cap w)
             ~subrange:(Hw.Addr.Range.make ~base ~len:page))
      in
      ignore
        (ok
           (Tyche.Monitor.grant m ~caller:os ~cap:piece ~to_:d ~rights:Cap.Rights.full
              ~cleanup:Cap.Revocation.Zero_and_flush))
    done;
    ignore
      (ok
         (Tyche.Monitor.share m ~caller:os
            ~cap:
              (List.find
                 (fun c ->
                   Cap.Captree.resource (Tyche.Monitor.tree m) c
                   = Some (Cap.Resource.Cpu_core 0))
                 (Tyche.Monitor.caps_of m os))
            ~to_:d ~rights:Cap.Rights.exclusive_use ~cleanup:Cap.Revocation.Keep ()));
    ok (Tyche.Monitor.set_entry_point m ~caller:os ~domain:d 0x400000);
    ok (Tyche.Monitor.mark_measured m ~caller:os ~domain:d
          (Hw.Addr.Range.make ~base:0x400000 ~len:page));
    ok (Tyche.Monitor.seal m ~caller:os ~domain:d);
    let att = ok (Tyche.Monitor.attest m ~caller:os ~domain:d ~nonce:"cli") in
    Format.printf "%a@." Tyche.Attestation.pp att;
    Printf.printf "signature verifies under the monitor root: %b\n"
      (Tyche.Attestation.verify ~monitor_root:(Tyche.Monitor.attestation_root m) att);
    Printf.printf "boot quote verifies under the TPM root: %b\n"
      (Rot.Tpm.Quote.verify ~root:(Rot.Tpm.endorsement_root w.tpm)
         (Tyche.Monitor.boot_quote m ~nonce:"cli"))
  in
  Cmd.v (Cmd.info "attest" ~doc:"Create an enclave and print its signed attestation.")
    Term.(const run $ arch $ regions)

(* transitions *)

let cmd_transitions =
  let n = Arg.(value & opt int 1000 & info [ "n" ] ~docv:"N" ~doc:"Call/ret pairs to run.") in
  let run arch n =
    let w = boot_world ~arch ~cores:2 ~mem_mib:32 in
    let m = w.monitor in
    let d = ok (Tyche.Monitor.create_domain m ~caller:os ~name:"hot" ~kind:Tyche.Domain.Enclave) in
    let piece =
      ok
        (Tyche.Monitor.carve m ~caller:os ~cap:(os_memory_cap w)
           ~subrange:(Hw.Addr.Range.make ~base:0x400000 ~len:page))
    in
    let _ =
      ok
        (Tyche.Monitor.grant m ~caller:os ~cap:piece ~to_:d ~rights:Cap.Rights.full
           ~cleanup:Cap.Revocation.Zero)
    in
    let _ =
      ok
        (Tyche.Monitor.share m ~caller:os
           ~cap:
             (List.find
                (fun c ->
                  Cap.Captree.resource (Tyche.Monitor.tree m) c
                  = Some (Cap.Resource.Cpu_core 0))
                (Tyche.Monitor.caps_of m os))
           ~to_:d ~rights:Cap.Rights.exclusive_use ~cleanup:Cap.Revocation.Keep ())
    in
    ok (Tyche.Monitor.set_entry_point m ~caller:os ~domain:d 0x400000);
    ok (Tyche.Monitor.seal m ~caller:os ~domain:d);
    Hw.Machine.reset_cycles w.machine;
    let fast = ref 0 and trap = ref 0 in
    for _ = 1 to n do
      (match ok (Tyche.Monitor.call m ~core:0 ~target:d) with
      | Tyche.Backend_intf.Fast_switch -> incr fast
      | Tyche.Backend_intf.Trap_roundtrip -> incr trap);
      (match ok (Tyche.Monitor.ret m ~core:0) with
      | Tyche.Backend_intf.Fast_switch -> incr fast
      | Tyche.Backend_intf.Trap_roundtrip -> incr trap)
    done;
    Printf.printf "%d call/ret pairs: %d fast-path, %d trap transitions\n" n !fast !trap;
    Printf.printf "simulated cycles total: %d (%.1f per transition)\n"
      (Hw.Machine.cycles w.machine)
      (float_of_int (Hw.Machine.cycles w.machine) /. float_of_int (2 * n))
  in
  Cmd.v (Cmd.info "transitions" ~doc:"Measure domain-transition paths and costs.")
    Term.(const run $ arch $ n)

(* recover / fsck *)

let store_dir =
  Arg.(value & opt string "./tyche-store"
       & info [ "store" ] ~docv:"DIR"
           ~doc:"Directory for the file-backed WAL + snapshot store.")

let boot_persistent_world ~arch ~cores ~mem_mib ~dir =
  let w = boot_world ~arch ~cores ~mem_mib in
  let store = Persist.Store.file ~dir in
  Tyche.Monitor.enable_persistence w.monitor ~store ~snapshot_every:16 ~fsync_every:1 ();
  (w, store)

(* A small mixed workload: enough churn that the WAL, a snapshot and the
   replay suffix all participate in the recovery that follows. *)
let persisted_workload w =
  let m = w.monitor in
  let d =
    ok (Tyche.Monitor.create_domain m ~caller:os ~name:"wal-enclave" ~kind:Tyche.Domain.Enclave)
  in
  let piece =
    ok
      (Tyche.Monitor.carve m ~caller:os ~cap:(os_memory_cap w)
         ~subrange:(Hw.Addr.Range.make ~base:0x400000 ~len:(4 * page)))
  in
  ignore
    (ok
       (Tyche.Monitor.grant m ~caller:os ~cap:piece ~to_:d ~rights:Cap.Rights.full
          ~cleanup:Cap.Revocation.Zero));
  ignore
    (ok
       (Tyche.Monitor.share m ~caller:os
          ~cap:
            (List.find
               (fun c ->
                 Cap.Captree.resource (Tyche.Monitor.tree m) c
                 = Some (Cap.Resource.Cpu_core 0))
               (Tyche.Monitor.caps_of m os))
          ~to_:d ~rights:Cap.Rights.exclusive_use ~cleanup:Cap.Revocation.Keep ()));
  ok (Tyche.Monitor.set_entry_point m ~caller:os ~domain:d 0x400000);
  ok (Tyche.Monitor.mark_measured m ~caller:os ~domain:d
        (Hw.Addr.Range.make ~base:0x400000 ~len:page));
  ok (Tyche.Monitor.seal m ~caller:os ~domain:d);
  ignore (ok (Tyche.Monitor.call m ~core:0 ~target:d));
  ignore (ok (Tyche.Monitor.ret m ~core:0));
  d

let recover_and_report ~arch ~cores ~mem_mib ~dir ~baseline =
  let machine = Hw.Machine.create ~arch ~cores ~mem_size:(mem_mib * 1024 * 1024) () in
  let rng = Crypto.Rng.create ~seed:2027L in
  let tpm = Rot.Tpm.create rng in
  let report =
    Rot.Boot.measured_boot tpm machine ~firmware ~loader:loader_blob ~monitor_image
  in
  let backend =
    match arch with
    | Hw.Cpu.X86_64 -> Backend_x86.create machine ()
    | Hw.Cpu.Riscv64 ->
      Backend_riscv.create machine ~monitor_range:report.Rot.Boot.monitor_range ()
  in
  let store = Persist.Store.file ~dir in
  match
    Tyche.Monitor.recover machine ~store ~backend ~tpm ~rng
      ~monitor_range:report.Rot.Boot.monitor_range
  with
  | Error e ->
    Printf.printf "recovery FAILED: %s\n" e;
    exit 1
  | Ok (m2, rep) ->
    Format.printf "%a@." Tyche.Monitor.pp_recovery_report rep;
    let fr = Tyche.Fsck.check ?baseline m2 in
    Format.printf "%a@." Tyche.Fsck.pp fr;
    if not (Tyche.Fsck.ok fr) then exit 1

let cmd_recover =
  let crash_at =
    Arg.(value & opt string "wal.append"
         & info [ "crash-at" ] ~docv:"POINT"
             ~doc:"Fault point to kill the run at: wal.append, wal.fsync or snapshot.write.")
  in
  let run arch cores mem_mib dir crash_at =
    if not (List.mem crash_at [ "wal.append"; "wal.fsync"; "snapshot.write" ]) then begin
      Printf.eprintf "unknown fault point %S\n" crash_at;
      exit 2
    end;
    let w, _store = boot_persistent_world ~arch ~cores ~mem_mib ~dir in
    let d = persisted_workload w in
    let pre =
      ok (Tyche.Monitor.attest w.monitor ~caller:os ~domain:d ~nonce:"cli-recover")
    in
    Printf.printf "workload committed %d operations; killing power at %s...\n"
      (Option.value ~default:0 (Tyche.Monitor.persist_seq w.monitor))
      crash_at;
    (match
       Fault.with_plan (Fault.always crash_at) (fun () ->
           if crash_at = "snapshot.write" then Tyche.Monitor.persist_snapshot w.monitor
           else
             (* Any committing operation appends to the WAL (and, with
                fsync_every = 1, syncs it) — carve a fresh page. *)
             ignore
               (ok
                  (Tyche.Monitor.carve w.monitor ~caller:os ~cap:(os_memory_cap w)
                     ~subrange:(Hw.Addr.Range.make ~base:0x500000 ~len:page))))
     with
    | () -> print_endline "fault point never fired (nothing to log?)"
    | exception Persist.Store.Crash point ->
      Printf.printf "simulated power failure at %s\n" point);
    print_endline "recovering from the store...";
    recover_and_report ~arch ~cores ~mem_mib ~dir ~baseline:(Some [ (d, pre) ])
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Run a persisted workload, kill it at an injected fault point, then crash-restart \
          from the store and audit the recovered state.")
    Term.(const run $ arch $ cores $ mem_mib $ store_dir $ crash_at)

let cmd_fsck =
  let run arch cores mem_mib dir =
    if not (Sys.file_exists dir && Sys.is_directory dir) then begin
      Printf.eprintf "no store at %s (run `tyche-cli recover --store %s` first)\n" dir dir;
      exit 2
    end;
    recover_and_report ~arch ~cores ~mem_mib ~dir ~baseline:None
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Crash-restart from an existing on-disk store (same machine shape as the run that \
          wrote it) and cross-check the recovered monitor against every invariant.")
    Term.(const run $ arch $ cores $ mem_mib $ store_dir)

(* migrate *)

let os_core_cap w core =
  let tree = Tyche.Monitor.tree w.monitor in
  match
    List.find_opt
      (fun c -> Cap.Captree.resource tree c = Some (Cap.Resource.Cpu_core core))
      (Tyche.Monitor.caps_of w.monitor os)
  with
  | Some c -> c
  | None -> failwith "no core capability"

(* Two machines on one adversar-ready network, a sealed enclave built on
   the first, migrated live to the second: the full protocol — offer /
   need dedup, chunk streaming, manifest verification, fsck-verified
   adoption, receipt, delegation-free commit — driven to convergence
   in-process, with the wire priced against a full-image transfer. *)
let cmd_migrate =
  let pages_arg =
    Arg.(value & opt int 64
         & info [ "pages" ] ~docv:"N" ~doc:"Enclave image size in 4 KiB pages.")
  in
  let run arch cores mem_mib pages =
    let net = Distributed.Network.create () in
    let boot_node name =
      let w = boot_world ~arch ~cores ~mem_mib in
      let store = Persist.Store.mem () in
      Tyche.Monitor.enable_persistence w.monitor ~store ();
      let fleet = Distributed.Fleet.create ~store ~monitor:w.monitor ~name ~net () in
      let mig = Distributed.Migrate.attach ~fleet ~store () in
      (w, fleet, mig)
    in
    let wa, fa, ma = boot_node "alpha" in
    let wb, fb, mb = boot_node "beta" in
    let key = "cli-migrate-session-key" in
    let fok = function
      | Ok v -> v
      | Error e -> Fmt.failwith "%s" (Distributed.Fleet.error_to_string e)
    in
    ignore (fok (Distributed.Fleet.connect fa ~peer:"beta" ~key));
    ignore (fok (Distributed.Fleet.connect fb ~peer:"alpha" ~key));
    Distributed.Migrate.set_peer_root mb ~peer:"alpha"
      (Tyche.Monitor.attestation_root wa.monitor);
    (* Build the traveller: [pages] private pages at 0x40000, a handful
       written (the untouched zero pages dedup to one chunk, so wire
       cost scales with distinct content, not image size). *)
    let base = 0x40000 in
    let written = min (pages / 2) 4 in
    let d =
      ok (Tyche.Monitor.create_domain wa.monitor ~caller:os ~name:"wanderer"
            ~kind:Tyche.Domain.Enclave)
    in
    let sub = Hw.Addr.Range.make ~base ~len:(pages * page) in
    let piece = ok (Tyche.Monitor.carve wa.monitor ~caller:os ~cap:(os_memory_cap wa) ~subrange:sub) in
    for i = 0 to written - 1 do
      ok (Tyche.Monitor.store_string wa.monitor ~core:0 (base + (i * page))
            (Printf.sprintf "wanderer-page-%04d" i))
    done;
    ignore
      (ok (Tyche.Monitor.grant wa.monitor ~caller:os ~cap:piece ~to_:d
             ~rights:Cap.Rights.full ~cleanup:Cap.Revocation.Zero_and_flush));
    ignore
      (ok (Tyche.Monitor.share wa.monitor ~caller:os ~cap:(os_core_cap wa 0) ~to_:d
             ~rights:Cap.Rights.exclusive_use ~cleanup:Cap.Revocation.Keep ()));
    ok (Tyche.Monitor.set_entry_point wa.monitor ~caller:os ~domain:d base);
    ok (Tyche.Monitor.mark_measured wa.monitor ~caller:os ~domain:d sub);
    ok (Tyche.Monitor.seal wa.monitor ~caller:os ~domain:d);
    Printf.printf "built sealed enclave 'wanderer' on alpha: %d pages (%d written) at 0x%x\n"
      pages written base;
    let wire0 = Distributed.Network.total_bytes net in
    let mig = ok_str (Result.map_error Distributed.Migrate.error_to_string
                        (Distributed.Migrate.start ma ~domain:d ~peer:"beta")) in
    Printf.printf "migration %s: alpha -> beta\n" mig;
    let rounds = ref 0 in
    while
      (not (Distributed.Migrate.idle ma && Distributed.Migrate.idle mb
            && Distributed.Fleet.idle fa && Distributed.Fleet.idle fb))
      && !rounds < 500
    do
      incr rounds;
      Distributed.Fleet.tick fa; Distributed.Fleet.tick fb;
      ignore (Distributed.Fleet.poll fa); ignore (Distributed.Fleet.poll fb);
      Distributed.Migrate.tick ma; Distributed.Migrate.tick mb
    done;
    let wire = Distributed.Network.total_bytes net - wire0 in
    let show name m =
      List.iter
        (fun (id, role, ph) ->
          Printf.printf "  %s %s: %s, %s\n" name id
            (match role with Distributed.Migrate.Source -> "source" | _ -> "target")
            (Format.asprintf "%a" Distributed.Migrate.pp_phase ph))
        (Distributed.Migrate.migrations m)
    in
    Printf.printf "converged in %d rounds:\n" !rounds;
    show "alpha" ma;
    show "beta" mb;
    (match Distributed.Migrate.adopted_domain mb ~mig with
    | Some ad ->
      let dom = Option.get (Tyche.Monitor.find_domain wb.monitor ad) in
      Printf.printf "beta hosts domain %d (%s), sealed=%b frozen=%b\n" ad
        (Tyche.Domain.name dom) (Tyche.Domain.is_sealed dom)
        (Tyche.Monitor.domain_frozen wb.monitor ~domain:ad)
    | None -> print_endline "beta adopted nothing");
    (match Distributed.Migrate.proxy_domain ma ~mig with
    | Some p ->
      Printf.printf "alpha holds proxy domain %d (%s)\n" p
        (Tyche.Domain.name (Option.get (Tyche.Monitor.find_domain wa.monitor p)))
    | None -> print_endline "alpha holds no proxy");
    Printf.printf "receipt chain verifies on beta: %b\n"
      (Distributed.Migrate.verify_receipt mb ~mig);
    Printf.printf "bytes on wire %d vs full image %d (%.1fx saved by chunk dedup)\n"
      wire (pages * page)
      (float_of_int (pages * page) /. float_of_int (max 1 wire));
    List.iter
      (fun (name, w) ->
        let fr = Tyche.Fsck.check w.monitor in
        Printf.printf "%s fsck: %s\n" name (if Tyche.Fsck.ok fr then "clean" else "DIRTY");
        if not (Tyche.Fsck.ok fr) then exit 1)
      [ ("alpha", wa); ("beta", wb) ]
  in
  Cmd.v
    (Cmd.info "migrate"
       ~doc:
         "Boot two machines on one network, build a sealed enclave on the first and \
          live-migrate it to the second: content-addressed chunk streaming, \
          attestation-bound manifest, fsck-verified adoption, receipt, and the \
          remote proxy left behind.")
    Term.(const run $ arch $ cores $ mem_mib $ pages_arg)

(* stats / trace *)

let dispatch_ok m call =
  match Tyche.Api.dispatch m ~caller:os ~core:0 call with
  | Ok v -> v
  | Error e -> Fmt.failwith "%s" (Tyche.Monitor.error_to_string e)

(* A journaled share/revoke churn driven through [Api.dispatch], so the
   trace shows the full stack: api spans around captree transactions
   around WAL appends around backend reprogramming. *)
let observed_workload ~arch ~cores ~mem_mib ~ops =
  Obs.reset ();
  let w = boot_world ~arch ~cores ~mem_mib in
  let store = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence w.monitor ~store ~snapshot_every:256 ~fsync_every:1 ();
  let d =
    match
      dispatch_ok w.monitor
        (Tyche.Api.Create_domain { name = "obs-enclave"; kind = Tyche.Domain.Enclave })
    with
    | Tyche.Api.R_domain d -> d
    | _ -> assert false
  in
  let piece =
    match
      dispatch_ok w.monitor
        (Tyche.Api.Carve
           { cap = os_memory_cap w;
             subrange = Hw.Addr.Range.make ~base:0x400000 ~len:page })
    with
    | Tyche.Api.R_cap c -> c
    | _ -> assert false
  in
  for _ = 1 to ops do
    let shared =
      match
        dispatch_ok w.monitor
          (Tyche.Api.Share
             { cap = piece; to_ = d; rights = Cap.Rights.rw;
               cleanup = Cap.Revocation.Zero; subrange = None })
      with
      | Tyche.Api.R_cap c -> c
      | _ -> assert false
    in
    ignore (dispatch_ok w.monitor (Tyche.Api.Revoke { cap = shared }))
  done;
  ignore (dispatch_ok w.monitor Tyche.Api.Enumerate);
  w

let ops_arg =
  Arg.(value & opt int 200
       & info [ "n" ] ~docv:"N" ~doc:"Journaled share/revoke pairs to run.")

let cmd_stats =
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as one JSON object.")
  in
  let run arch cores mem_mib ops json =
    let w = observed_workload ~arch ~cores ~mem_mib ~ops in
    let report = Tyche.Monitor.observe w.monitor in
    if json then print_endline (Obs.report_to_json report)
    else Format.printf "%a@." Obs.pp_report report
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run a journaled workload and print the observability report: per-op counts, \
          latency percentiles, per-domain activity, journal commit/rollback counters.")
    Term.(const run $ arch $ cores $ mem_mib $ ops_arg $ json)

let cmd_trace =
  let capacity =
    Arg.(value & opt int 4096
         & info [ "capacity" ] ~docv:"N"
             ~doc:"Trace ring size in events (rounded up to a power of two).")
  in
  let run arch cores mem_mib ops capacity =
    Obs.configure ~capacity ();
    let _w = observed_workload ~arch ~cores ~mem_mib ~ops in
    List.iter (fun ev -> print_endline (Obs.event_to_json ev)) (Obs.events ());
    if Obs.dropped () > 0 then
      Printf.eprintf "(%d older events dropped by ring wraparound)\n" (Obs.dropped ());
    match Obs.check () with
    | Ok () -> ()
    | Error msg ->
      Printf.eprintf "obs self-check FAILED: %s\n" msg;
      exit 1
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a journaled workload and dump the structured trace ring as JSON lines \
          (span begin/end pairs with cycle stamps, domain, backend, trace id).")
    Term.(const run $ arch $ cores $ mem_mib $ ops_arg $ capacity)

(* loc *)

let cmd_loc =
  let run () =
    let t = Tcb.count ~root:"." in
    Format.printf "%a%!" Tcb.pp t;
    if t.Tcb.total >= Tcb.limit then exit 1
  in
  Cmd.v
    (Cmd.info "loc"
       ~doc:
         "Count the trusted computing base: the link closure of the two backend \
          libraries, read from the dune files (run from the repo root). Exits 1 once it \
          reaches 10K lines (claim C3).")
    Term.(const run $ const ())

let () =
  let info =
    Cmd.info "tyche-cli" ~version:"0.1"
      ~doc:"Drive a simulated Tyche isolation monitor from the command line."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ cmd_boot; cmd_fig4; cmd_attest; cmd_transitions; cmd_recover; cmd_fsck;
            cmd_migrate; cmd_stats; cmd_trace; cmd_loc ]))

let _ = ok_str
