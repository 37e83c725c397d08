(* Backend-specific tests: EPT/VMFUNC behaviour on x86, PMP entry
   budgets and layout validation on RISC-V, and the TLB-strategy and
   allocation-strategy ablations. *)

open Testkit

let range ~base ~len = Hw.Addr.Range.make ~base ~len
let page = Hw.Addr.page_size

(* Build a sealed domain with [n_pages] of memory at [base] and core 0. *)
let make_domain w ~name ~base ~n_pages =
  let m = w.monitor in
  let d = get_ok (Tyche.Monitor.create_domain m ~caller:os ~name ~kind:Tyche.Domain.Enclave) in
  let sub = range ~base ~len:(n_pages * page) in
  let piece = get_ok (Tyche.Monitor.carve m ~caller:os ~cap:(os_memory_cap w) ~subrange:sub) in
  let _ =
    get_ok
      (Tyche.Monitor.grant m ~caller:os ~cap:piece ~to_:d ~rights:Cap.Rights.full
         ~cleanup:Cap.Revocation.Zero)
  in
  let _ =
    get_ok
      (Tyche.Monitor.share m ~caller:os ~cap:(os_core_cap w 0) ~to_:d
         ~rights:Cap.Rights.exclusive_use ~cleanup:Cap.Revocation.Keep ())
  in
  get_ok (Tyche.Monitor.set_entry_point m ~caller:os ~domain:d base);
  get_ok (Tyche.Monitor.seal m ~caller:os ~domain:d);
  d

let test_x86_ept_per_domain () =
  let w = boot_x86 () in
  let d = make_domain w ~name:"d" ~base:0x10000 ~n_pages:2 in
  (match Backend_x86.ept_of w.backend d with
  | Some ept -> Alcotest.(check int) "domain EPT has 2 pages" 2 (Hw.Ept.mapped_pages ept)
  | None -> Alcotest.fail "no EPT for domain");
  match Backend_x86.ept_of w.backend os with
  | Some ept ->
    Alcotest.(check bool) "os EPT no longer maps the granted range" false
      (Hw.Ept.reaches_hpa_range ept (range ~base:0x10000 ~len:(2 * page)))
  | None -> Alcotest.fail "no EPT for OS"

let test_x86_unaligned_rejected () =
  let w = boot_x86 () in
  let m = w.monitor in
  let d = get_ok (Tyche.Monitor.create_domain m ~caller:os ~name:"d" ~kind:Tyche.Domain.Sandbox) in
  match
    Tyche.Monitor.share m ~caller:os ~cap:(os_memory_cap w) ~to_:d ~rights:Cap.Rights.rw
      ~cleanup:Cap.Revocation.Keep ~subrange:(range ~base:0x10010 ~len:100) ()
  with
  | Error (Tyche.Monitor.Backend_refused msg) ->
    Alcotest.(check bool) "mentions alignment" true (contains_substring msg "aligned")
  | Error e -> Alcotest.failf "wrong error: %s" (Tyche.Monitor.error_to_string e)
  | Ok _ -> Alcotest.fail "unaligned share accepted by EPT backend"

let test_x86_eptp_registration () =
  let w = boot_x86 () in
  let m = w.monitor in
  let d = make_domain w ~name:"d" ~base:0x10000 ~n_pages:1 in
  Alcotest.(check bool) "not registered before first call" false
    (Backend_x86.eptp_registered w.backend ~from_:os ~to_:d);
  let _ = get_ok (Tyche.Monitor.call m ~core:0 ~target:d) in
  Alcotest.(check bool) "registered after first trap" true
    (Backend_x86.eptp_registered w.backend ~from_:os ~to_:d);
  let _ = get_ok (Tyche.Monitor.ret m ~core:0) in
  Alcotest.(check int) "counted traps" 2 (Backend_x86.trap_transitions w.backend);
  let _ = get_ok (Tyche.Monitor.call m ~core:0 ~target:d) in
  Alcotest.(check int) "counted fast" 1 (Backend_x86.fast_transitions w.backend)

let test_x86_transition_cycle_costs () =
  let w = boot_x86 () in
  let m = w.monitor in
  let d = make_domain w ~name:"d" ~base:0x10000 ~n_pages:1 in
  Hw.Machine.reset_cycles w.machine;
  let _ = get_ok (Tyche.Monitor.call m ~core:0 ~target:d) in
  let trap_cost = Hw.Machine.cycles w.machine in
  Alcotest.(check int) "trap = vmcall" Hw.Cycles.Cost.vmcall_roundtrip trap_cost;
  let _ = get_ok (Tyche.Monitor.ret m ~core:0) in
  Hw.Machine.reset_cycles w.machine;
  let _ = get_ok (Tyche.Monitor.call m ~core:0 ~target:d) in
  let fast_cost = Hw.Machine.cycles w.machine in
  Alcotest.(check int) "fast = vmfunc" Hw.Cycles.Cost.vmfunc fast_cost;
  Alcotest.(check bool) "paper ratio: ~10x" true (trap_cost / fast_cost >= 5)

let test_x86_tlb_strategies () =
  (* Full shootdown pays IPIs; ASID flush doesn't. *)
  let cost_of strategy =
    let w = boot_x86 ~tlb_strategy:strategy () in
    let m = w.monitor in
    let d = make_domain w ~name:"d" ~base:0x10000 ~n_pages:4 in
    let cap = List.hd (Tyche.Monitor.caps_of m d) in
    Hw.Machine.reset_cycles w.machine;
    get_ok (Tyche.Monitor.revoke m ~caller:os ~cap);
    Hw.Machine.cycles w.machine
  in
  let full = cost_of Backend_x86.Full_shootdown in
  let asid = cost_of Backend_x86.Asid_flush in
  Alcotest.(check bool) "shootdown costlier than asid flush" true (full > asid)

let test_x86_iommu_follows_memory () =
  let gpu = Hw.Device.create ~kind:Hw.Device.Gpu ~bus:3 ~dev:0 ~fn:0 () in
  let w = boot_x86 ~devices:[ gpu ] () in
  let m = w.monitor in
  let machine = w.machine in
  (* At boot the device belongs to the OS: DMA into OS memory works. *)
  Hw.Device.dma_write gpu machine.Hw.Machine.iommu machine.Hw.Machine.mem 0x7000 "ok";
  (* Move the device to an IO domain holding only one page. *)
  let io = get_ok (Tyche.Monitor.create_domain m ~caller:os ~name:"gpu" ~kind:Tyche.Domain.Io_domain) in
  let piece =
    get_ok (Tyche.Monitor.carve m ~caller:os ~cap:(os_memory_cap w)
              ~subrange:(range ~base:0x10000 ~len:page))
  in
  let _ =
    get_ok (Tyche.Monitor.grant m ~caller:os ~cap:piece ~to_:io ~rights:Cap.Rights.full
              ~cleanup:Cap.Revocation.Zero)
  in
  let dev_cap =
    List.find
      (fun c ->
        Cap.Captree.resource (Tyche.Monitor.tree m) c
        = Some (Cap.Resource.Device (Hw.Device.bdf gpu)))
      (Tyche.Monitor.caps_of m os)
  in
  let _ =
    get_ok (Tyche.Monitor.grant m ~caller:os ~cap:dev_cap ~to_:io
              ~rights:Cap.Rights.exclusive_use ~cleanup:Cap.Revocation.Keep)
  in
  (* Now DMA is confined to the IO domain's page. *)
  Hw.Device.dma_write gpu machine.Hw.Machine.iommu machine.Hw.Machine.mem 0x10000 "in";
  Alcotest.check_raises "DMA outside blocked"
    (Hw.Iommu.Dma_fault { device = Hw.Device.bdf gpu; addr = 0x7000 })
    (fun () ->
      Hw.Device.dma_write gpu machine.Hw.Machine.iommu machine.Hw.Machine.mem 0x7000 "out")

let test_riscv_entry_budget () =
  let w = boot_riscv () in
  let m = w.monitor in
  let budget = Backend_riscv.usable_entries w.machine in
  let d = get_ok (Tyche.Monitor.create_domain m ~caller:os ~name:"greedy" ~kind:Tyche.Domain.Sandbox) in
  (* Share discontiguous single pages until the budget runs out. Every
     other page, so ranges never merge. *)
  let shared = ref 0 in
  (try
     for i = 0 to budget + 4 do
       let base = 0x100000 + (i * 2 * page) in
       match
         Tyche.Monitor.share m ~caller:os ~cap:(os_memory_cap w) ~to_:d
           ~rights:Cap.Rights.rw ~cleanup:Cap.Revocation.Keep
           ~subrange:(range ~base ~len:page) ()
       with
       | Ok _ -> incr shared
       | Error (Tyche.Monitor.Backend_refused _) -> raise Exit
       | Error e -> Alcotest.failf "unexpected: %s" (Tyche.Monitor.error_to_string e)
     done;
     Alcotest.fail "PMP budget never enforced"
   with Exit -> ());
  Alcotest.(check int) "admitted exactly the budget" budget !shared

let test_riscv_merging_extends_budget () =
  (* With Merge_adjacent, contiguous pages collapse into one entry, so
     a contiguous domain can hold far more pages than entries. *)
  let w = boot_riscv ~alloc_strategy:Backend_riscv.Merge_adjacent () in
  let m = w.monitor in
  let d = get_ok (Tyche.Monitor.create_domain m ~caller:os ~name:"contig" ~kind:Tyche.Domain.Sandbox) in
  for i = 0 to 63 do
    let base = 0x100000 + (i * page) in
    let _ =
      get_ok
        (Tyche.Monitor.share m ~caller:os ~cap:(os_memory_cap w) ~to_:d
           ~rights:Cap.Rights.rw ~cleanup:Cap.Revocation.Keep
           ~subrange:(range ~base ~len:page) ())
    in
    ()
  done;
  Alcotest.(check int) "64 contiguous pages = 1 PMP segment" 1
    (List.length (Backend_riscv.layout_of w.backend d));
  (* First_fit, by contrast, burns an entry per share. *)
  let w2 = boot_riscv ~alloc_strategy:Backend_riscv.First_fit () in
  let m2 = w2.monitor in
  let d2 = get_ok (Tyche.Monitor.create_domain m2 ~caller:os ~name:"frag" ~kind:Tyche.Domain.Sandbox) in
  let budget = Backend_riscv.usable_entries w2.machine in
  let shared = ref 0 in
  (try
     for i = 0 to 63 do
       let base = 0x100000 + (i * page) in
       match
         Tyche.Monitor.share m2 ~caller:os ~cap:(os_memory_cap w2) ~to_:d2
           ~rights:Cap.Rights.rw ~cleanup:Cap.Revocation.Keep
           ~subrange:(range ~base ~len:page) ()
       with
       | Ok _ -> incr shared
       | Error _ -> raise Exit
     done
   with Exit -> ());
  Alcotest.(check bool) "first-fit exhausts at the budget" true (!shared <= budget)

let test_riscv_monitor_locked () =
  let w = boot_riscv () in
  let mon_base = Hw.Addr.Range.base w.boot_report.Rot.Boot.monitor_range in
  expect_error (Tyche.Monitor.load w.monitor ~core:0 mon_base);
  expect_error (Tyche.Monitor.store w.monitor ~core:0 mon_base 1)

let test_riscv_transition_reprograms_pmp () =
  let w = boot_riscv () in
  let m = w.monitor in
  let d = make_domain w ~name:"d" ~base:0x10000 ~n_pages:1 in
  let writes_before = Backend_riscv.pmp_reprogram_writes w.backend in
  let _ = get_ok (Tyche.Monitor.call m ~core:0 ~target:d) in
  Alcotest.(check bool) "transition rewrote PMP entries" true
    (Backend_riscv.pmp_reprogram_writes w.backend > writes_before);
  (* While the enclave runs, the OS's memory is not reachable on core 0. *)
  expect_error (Tyche.Monitor.load m ~core:0 0x4000);
  (* But the OS still runs undisturbed on core 1. *)
  get_ok (Tyche.Monitor.store m ~core:1 0x4000 5);
  Alcotest.(check int) "core 1 unaffected" 5 (get_ok (Tyche.Monitor.load m ~core:1 0x4000));
  let _ = get_ok (Tyche.Monitor.ret m ~core:0) in
  Alcotest.(check int) "transitions counted" 2 (Backend_riscv.transitions w.backend)

let test_riscv_subpage_granularity () =
  (* PMP segments are byte-granular (TOR), unlike 4 KiB EPT pages: the
     PMP backend accepts a 64-byte share the EPT backend refuses. *)
  let w = boot_riscv () in
  let m = w.monitor in
  let d = get_ok (Tyche.Monitor.create_domain m ~caller:os ~name:"tiny" ~kind:Tyche.Domain.Sandbox) in
  let sliver = range ~base:0x10040 ~len:64 in
  let _ =
    get_ok
      (Tyche.Monitor.share m ~caller:os ~cap:(os_memory_cap w) ~to_:d
         ~rights:Cap.Rights.rw ~cleanup:Cap.Revocation.Keep ~subrange:sliver ())
  in
  Alcotest.(check int) "sub-page region attached" 2
    (Cap.Captree.refcount (Tyche.Monitor.tree m) (Cap.Resource.Memory sliver));
  (* Same request on x86: backend refusal. *)
  let wx = boot_x86 () in
  let dx = get_ok (Tyche.Monitor.create_domain wx.monitor ~caller:os ~name:"tiny" ~kind:Tyche.Domain.Sandbox) in
  match
    Tyche.Monitor.share wx.monitor ~caller:os ~cap:(os_memory_cap wx) ~to_:dx
      ~rights:Cap.Rights.rw ~cleanup:Cap.Revocation.Keep ~subrange:sliver ()
  with
  | Error (Tyche.Monitor.Backend_refused _) -> ()
  | _ -> Alcotest.fail "EPT backend accepted a sub-page range"

let test_riscv_ecall_cost () =
  let w = boot_riscv () in
  let m = w.monitor in
  let d = make_domain w ~name:"d" ~base:0x10000 ~n_pages:1 in
  Hw.Machine.reset_cycles w.machine;
  let _ = get_ok (Tyche.Monitor.call m ~core:0 ~target:d) in
  let cost = Hw.Machine.cycles w.machine in
  Alcotest.(check bool) "cost = ecall + pmp writes" true
    (cost >= Hw.Cycles.Cost.ecall_machine_mode
     && cost < Hw.Cycles.Cost.ecall_machine_mode + (32 * Hw.Cycles.Cost.pmp_entry_write))

(* A weaker overlapping grant must not take away access the domain
   still holds: share one page rw, share it again read-only, and the
   sandbox can still store there — live, and on a monitor recovered
   from the journal alone. [perm_at] reads the page's hardware
   permission from the backend. *)
let overlapping_grants_keep_union ~boot ~perm_at () =
  let w = boot () in
  let m = w.monitor in
  let store = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence m ~store ();
  let d =
    get_ok (Tyche.Monitor.create_domain m ~caller:os ~name:"sandbox" ~kind:Tyche.Domain.Sandbox)
  in
  let addr = 0xc00000 in
  List.iter
    (fun rights ->
      ignore
        (get_ok
           (Tyche.Monitor.share m ~caller:os ~cap:(os_memory_cap w) ~to_:d ~rights
              ~cleanup:Cap.Revocation.Keep ~subrange:(range ~base:addr ~len:page) ())))
    [ Cap.Rights.rw; Cap.Rights.read_only ];
  ignore
    (get_ok
       (Tyche.Monitor.share m ~caller:os ~cap:(os_core_cap w 0) ~to_:d
          ~rights:Cap.Rights.exclusive_use ~cleanup:Cap.Revocation.Keep ()));
  get_ok (Tyche.Monitor.set_entry_point m ~caller:os ~domain:d addr);
  get_ok (Tyche.Monitor.seal m ~caller:os ~domain:d);
  let stores m =
    let _ = get_ok (Tyche.Monitor.call m ~core:0 ~target:d) in
    get_ok ~msg:"store through the rw holding" (Tyche.Monitor.store m ~core:0 addr 7);
    ignore (get_ok (Tyche.Monitor.ret m ~core:0))
  in
  stores m;
  Alcotest.(check string) "hardware permission is the union" "rw-"
    (Hw.Perm.to_string (perm_at m d addr));
  let m2, _ = get_ok_str (recover_like w ~store) in
  Alcotest.(check string) "recovery rebuilds the same permission" "rw-"
    (Hw.Perm.to_string (perm_at m2 d addr));
  stores m2

let x86_perm_at m d addr =
  match Backend_x86.ept_of (Tyche.Monitor.backend m) d with
  | Some ept -> Hw.Ept.hpa_reachable ept addr
  | None -> Hw.Perm.none

let riscv_perm_at m d addr =
  List.fold_left
    (fun acc (r, p) -> if Hw.Addr.Range.contains r addr then Hw.Perm.union acc p else acc)
    Hw.Perm.none
    (Backend_riscv.layout_of (Tyche.Monitor.backend m) d)

(* Dropping a backend must free it and the machine its state holds:
   the introspection registries hold both weakly. *)
let test_dropped_backends_collected () =
  let n = 50 in
  let machines = Weak.create (2 * n) in
  let make i =
    let arch = if i < n then Hw.Cpu.X86_64 else Hw.Cpu.Riscv64 in
    let machine = Hw.Machine.create ~arch ~cores:1 ~mem_size:(1024 * 1024) () in
    Weak.set machines i (Some machine);
    match arch with
    | Hw.Cpu.X86_64 ->
      let b = Backend_x86.create machine () in
      Alcotest.(check int) "x86 lookup" 0 (Backend_x86.trap_transitions b)
    | Hw.Cpu.Riscv64 ->
      let b = Backend_riscv.create machine ~monitor_range:(range ~base:0 ~len:page) () in
      Alcotest.(check int) "riscv lookup" 0 (Backend_riscv.transitions b)
  in
  for i = 0 to (2 * n) - 1 do
    make i
  done;
  Gc.full_major ();
  let alive = ref 0 in
  for i = 0 to (2 * n) - 1 do
    if Weak.check machines i then incr alive
  done;
  Alcotest.(check int) "machines of dropped backends collected" 0 !alive;
  (* A new backend prunes the dead entries; live ones still resolve. *)
  let w = boot_x86 () in
  Alcotest.(check bool) "live backend still resolves" true
    (Backend_x86.ept_of w.backend os <> None)

(* Counted-work twin of the E18 cascade: the EPT, cache and TLB
   entries a revoke examines ({!Hw.Machine.examined}), per revoked
   capability. A relay holds a (fanout + 1)-page share; each page is
   re-shared to the victims, which run once and load every page they
   hold, so the cache and TLB carry their lines and translations. All
   victims sit in one domain, or are spread over seven. *)
let examined_per_victim ~one_domain fanout =
  let w = boot_x86 ~cores:2 () in
  let m = w.monitor in
  let create name =
    get_ok (Tyche.Monitor.create_domain m ~caller:os ~name ~kind:Tyche.Domain.Sandbox)
  in
  let relay = create "relay" in
  let victims = Array.init (if one_domain then 1 else 7) (fun i -> create (Printf.sprintf "v%d" i)) in
  let nv = Array.length victims in
  let base = 0x400000 in
  let parent =
    get_ok
      (Tyche.Monitor.share m ~caller:os ~cap:(os_memory_cap w) ~to_:relay ~rights:Cap.Rights.rw
         ~cleanup:Cap.Revocation.Keep ~subrange:(range ~base ~len:((fanout + 1) * page)) ())
  in
  for k = 0 to fanout - 1 do
    ignore
      (get_ok
         (Tyche.Monitor.share m ~caller:relay ~cap:parent ~to_:victims.(k mod nv)
            ~rights:Cap.Rights.read_only ~cleanup:Cap.Revocation.Flush_cache
            ~subrange:(range ~base:(base + (k * page)) ~len:page) ()))
  done;
  Array.iteri
    (fun i v ->
      ignore
        (get_ok
           (Tyche.Monitor.share m ~caller:os ~cap:(os_core_cap w 1) ~to_:v
              ~rights:Cap.Rights.exclusive_use ~cleanup:Cap.Revocation.Keep ()));
      get_ok (Tyche.Monitor.set_entry_point m ~caller:os ~domain:v (base + (i * page)));
      get_ok (Tyche.Monitor.seal m ~caller:os ~domain:v);
      let _ = get_ok (Tyche.Monitor.call m ~core:1 ~target:v) in
      let k = ref i in
      while !k < fanout do
        ignore (get_ok (Tyche.Monitor.load m ~core:1 (base + (!k * page))));
        k := !k + nv
      done;
      ignore (get_ok (Tyche.Monitor.ret m ~core:1)))
    victims;
  let before = Hw.Machine.examined w.machine in
  get_ok (Tyche.Monitor.revoke m ~caller:os ~cap:parent);
  float_of_int (Hw.Machine.examined w.machine - before) /. float_of_int (fanout + 1)

let test_cascade_examined_flat () =
  List.iter
    (fun (shape, one_domain) ->
      let small = examined_per_victim ~one_domain 10
      and large = examined_per_victim ~one_domain 1000 in
      if large > 2.0 *. small then
        Alcotest.failf "%s: %.1f entries examined per victim at fanout 1000 vs %.1f at 10 (> 2x)"
          shape large small)
    [ ("one domain", true); ("spread", false) ]

let () =
  Alcotest.run "backends"
    [ ( "x86-vtx",
        [ Alcotest.test_case "per-domain EPT" `Quick test_x86_ept_per_domain;
          Alcotest.test_case "unaligned rejected" `Quick test_x86_unaligned_rejected;
          Alcotest.test_case "eptp registration" `Quick test_x86_eptp_registration;
          Alcotest.test_case "transition cycle costs" `Quick test_x86_transition_cycle_costs;
          Alcotest.test_case "tlb strategy ablation" `Quick test_x86_tlb_strategies;
          Alcotest.test_case "iommu follows memory" `Quick test_x86_iommu_follows_memory;
          Alcotest.test_case "overlapping grants keep the union" `Quick
            (overlapping_grants_keep_union ~boot:(fun () -> boot_x86 ()) ~perm_at:x86_perm_at);
          Alcotest.test_case "cascade work flat in fanout" `Quick test_cascade_examined_flat ] );
      ( "riscv-pmp",
        [ Alcotest.test_case "entry budget enforced" `Quick test_riscv_entry_budget;
          Alcotest.test_case "merging ablation" `Quick test_riscv_merging_extends_budget;
          Alcotest.test_case "monitor locked" `Quick test_riscv_monitor_locked;
          Alcotest.test_case "transition reprograms PMP" `Quick
            test_riscv_transition_reprograms_pmp;
          Alcotest.test_case "ecall cost" `Quick test_riscv_ecall_cost;
          Alcotest.test_case "sub-page granularity" `Quick test_riscv_subpage_granularity;
          Alcotest.test_case "overlapping grants keep the union" `Quick
            (overlapping_grants_keep_union ~boot:(fun () -> boot_riscv ()) ~perm_at:riscv_perm_at) ] );
      ( "registry",
        [ Alcotest.test_case "dropped backends are collected" `Quick
            test_dropped_backends_collected ] ) ]
