(* Tests for the simulated-hardware substrate. *)

open Hw

let range ~base ~len = Addr.Range.make ~base ~len

let test_addr_alignment () =
  Alcotest.(check bool) "aligned" true (Addr.is_page_aligned 0x3000);
  Alcotest.(check bool) "unaligned" false (Addr.is_page_aligned 0x3001);
  Alcotest.(check int) "align_down" 0x3000 (Addr.align_down 0x3fff);
  Alcotest.(check int) "align_up" 0x4000 (Addr.align_up 0x3001);
  Alcotest.(check int) "align_up exact" 0x3000 (Addr.align_up 0x3000)

let test_range_basics () =
  let r = range ~base:0x1000 ~len:0x2000 in
  Alcotest.(check int) "last" 0x2fff (Addr.Range.last r);
  Alcotest.(check int) "limit" 0x3000 (Addr.Range.limit r);
  Alcotest.(check bool) "contains base" true (Addr.Range.contains r 0x1000);
  Alcotest.(check bool) "excludes limit" false (Addr.Range.contains r 0x3000);
  Alcotest.check_raises "empty" (Invalid_argument "Addr.Range.make: non-positive length")
    (fun () -> ignore (range ~base:0 ~len:0))

let test_range_set_ops () =
  let a = range ~base:0x1000 ~len:0x2000 and b = range ~base:0x2000 ~len:0x2000 in
  Alcotest.(check bool) "overlap" true (Addr.Range.overlaps a b);
  (match Addr.Range.intersect a b with
  | Some i ->
    Alcotest.(check int) "intersect base" 0x2000 (Addr.Range.base i);
    Alcotest.(check int) "intersect len" 0x1000 (Addr.Range.len i)
  | None -> Alcotest.fail "expected intersection");
  (match Addr.Range.subtract a b with
  | [ left ] ->
    Alcotest.(check int) "left piece" 0x1000 (Addr.Range.base left);
    Alcotest.(check int) "left len" 0x1000 (Addr.Range.len left)
  | other -> Alcotest.failf "expected 1 piece, got %d" (List.length other));
  let hole = range ~base:0x1800 ~len:0x800 in
  (match Addr.Range.subtract a hole with
  | [ l; r ] ->
    Alcotest.(check int) "punch left" 0x1000 (Addr.Range.base l);
    Alcotest.(check int) "punch right" 0x2000 (Addr.Range.base r)
  | other -> Alcotest.failf "expected 2 pieces, got %d" (List.length other));
  Alcotest.(check (list int)) "disjoint subtract unchanged"
    [ 0x1000 ]
    (List.map Addr.Range.base (Addr.Range.subtract a (range ~base:0x8000 ~len:0x1000)))

let test_range_merge_split () =
  let a = range ~base:0x1000 ~len:0x1000 and b = range ~base:0x2000 ~len:0x1000 in
  Alcotest.(check bool) "adjacent" true (Addr.Range.adjacent a b);
  (match Addr.Range.merge a b with
  | Some m -> Alcotest.(check int) "merged len" 0x2000 (Addr.Range.len m)
  | None -> Alcotest.fail "expected merge");
  Alcotest.(check bool) "gap no merge" true
    (Addr.Range.merge a (range ~base:0x4000 ~len:0x1000) = None);
  (match Addr.Range.split_at a 0x1800 with
  | Some (l, r) ->
    Alcotest.(check int) "split left len" 0x800 (Addr.Range.len l);
    Alcotest.(check int) "split right base" 0x1800 (Addr.Range.base r)
  | None -> Alcotest.fail "expected split");
  Alcotest.(check bool) "split at edge fails" true (Addr.Range.split_at a 0x1000 = None)

let test_range_pages () =
  let r = range ~base:0x1800 ~len:0x1000 in
  Alcotest.(check (list int)) "straddling pages" [ 0x1000; 0x2000 ] (Addr.Range.pages r)

let test_physmem_rw () =
  let mem = Physmem.create ~size:(64 * 1024) in
  Physmem.write mem 0x100 "hello";
  Alcotest.(check string) "read back" "hello"
    (Physmem.read mem (range ~base:0x100 ~len:5));
  Physmem.write_byte mem 0x200 0x1FF;
  Alcotest.(check int) "byte masked" 0xFF (Physmem.read_byte mem 0x200);
  Alcotest.check_raises "oob read" (Physmem.Bus_error (64 * 1024)) (fun () ->
      ignore (Physmem.read_byte mem (64 * 1024)))

let test_physmem_zero_measure () =
  let mem = Physmem.create ~size:(64 * 1024) in
  Physmem.write mem 0x1000 "secret";
  let r = range ~base:0x1000 ~len:0x1000 in
  let before = Physmem.measure mem r in
  Physmem.zero_range mem r;
  let after = Physmem.measure mem r in
  Alcotest.(check bool) "measurement changed" false (Crypto.Sha256.equal before after);
  Alcotest.(check bool) "zeroed" true
    (Crypto.Sha256.equal after (Crypto.Sha256.string (String.make 0x1000 '\x00')));
  Alcotest.(check int) "content zero" 0 (Physmem.read_byte mem 0x1002)

let test_physmem_blit () =
  let mem = Physmem.create ~size:(64 * 1024) in
  Physmem.write mem 0 "copyme";
  Physmem.blit mem ~src:(range ~base:0 ~len:6) ~dst:0x2000;
  Alcotest.(check string) "copied" "copyme" (Physmem.read mem (range ~base:0x2000 ~len:6));
  Alcotest.check_raises "overlap rejected"
    (Invalid_argument "Physmem.blit: overlapping ranges") (fun () ->
      Physmem.blit mem ~src:(range ~base:0 ~len:16) ~dst:8)

let test_perm () =
  Alcotest.(check bool) "rwx subsumes rx" true (Perm.subsumes Perm.rwx Perm.rx);
  Alcotest.(check bool) "rx !subsumes rw" false (Perm.subsumes Perm.rx Perm.rw);
  Alcotest.(check string) "render" "rw-" (Perm.to_string Perm.rw);
  Alcotest.(check bool) "union" true
    (Perm.equal (Perm.union Perm.r Perm.rw) Perm.rw);
  Alcotest.(check bool) "inter" true
    (Perm.equal (Perm.inter Perm.rx Perm.rw) Perm.r)

let counter () = Cycles.create ()

let test_ept_map_translate () =
  let c = counter () in
  let ept = Ept.create ~counter:c in
  Ept.map_page ept ~gpa:0x5000 ~hpa:0x9000 Perm.rw;
  Alcotest.(check int) "translate offset" 0x9123
    (Ept.translate ept ~gpa:0x5123 ~access:`Read);
  Alcotest.check_raises "exec denied"
    (Ept.Violation { gpa = 0x5000; access = `Exec })
    (fun () -> ignore (Ept.translate ept ~gpa:0x5000 ~access:`Exec));
  Alcotest.check_raises "unmapped"
    (Ept.Violation { gpa = 0x8000; access = `Read })
    (fun () -> ignore (Ept.translate ept ~gpa:0x8000 ~access:`Read));
  Alcotest.check_raises "unaligned" (Invalid_argument "Ept.map_page: unaligned address")
    (fun () -> Ept.map_page ept ~gpa:0x5001 ~hpa:0x9000 Perm.rw)

let test_ept_range_ops () =
  let c = counter () in
  let ept = Ept.create ~counter:c in
  Ept.map_range ept ~gpa:0x10000 (range ~base:0x10000 ~len:(4 * 4096)) Perm.rwx;
  Alcotest.(check int) "4 pages" 4 (Ept.mapped_pages ept);
  Alcotest.(check bool) "reaches" true
    (Ept.reaches_hpa_range ept (range ~base:0x11000 ~len:4096));
  let removed = Ept.unmap_hpa_range ept (range ~base:0x11000 ~len:(2 * 4096)) in
  Alcotest.(check int) "unmapped 2" 2 removed;
  Alcotest.(check int) "2 left" 2 (Ept.mapped_pages ept);
  Alcotest.(check bool) "no longer reaches" false
    (Ept.reaches_hpa_range ept (range ~base:0x11000 ~len:4096));
  Alcotest.(check bool) "hpa_reachable none" true
    (Perm.equal Perm.none (Ept.hpa_reachable ept 0x11000));
  Alcotest.(check bool) "hpa_reachable rwx" true
    (Perm.equal Perm.rwx (Ept.hpa_reachable ept 0x10000))

let test_eptp_list () =
  let c = counter () in
  let l = Ept.Eptp_list.create () in
  let e1 = Ept.create ~counter:c and e2 = Ept.create ~counter:c in
  Alcotest.(check (option int)) "register first" (Some 0) (Ept.Eptp_list.register l e1);
  Alcotest.(check (option int)) "register second" (Some 1) (Ept.Eptp_list.register l e2);
  Alcotest.(check (option int)) "idempotent" (Some 0) (Ept.Eptp_list.register l e1);
  Alcotest.(check int) "count" 2 (Ept.Eptp_list.count l);
  (* Fill to capacity. *)
  for _ = 3 to Ept.Eptp_list.max_entries do
    ignore (Ept.Eptp_list.register l (Ept.create ~counter:c))
  done;
  Alcotest.(check (option int)) "full list rejects" None
    (Ept.Eptp_list.register l (Ept.create ~counter:c))

let test_pmp_priority_and_modes () =
  let c = counter () in
  let pmp = Pmp.create ~entries:8 ~counter:c () in
  (* Entry 0 denies a subrange that entry 1 would allow: priority wins. *)
  Pmp.set pmp ~index:0 (range ~base:0x2000 ~len:0x1000) Perm.none ~locked:false;
  Pmp.set pmp ~index:1 (range ~base:0x0 ~len:0x10000) Perm.rw ~locked:false;
  Alcotest.check_raises "priority deny"
    (Pmp.Fault { addr = 0x2800; access = `Read })
    (fun () -> Pmp.check pmp ~mode:`U 0x2800 `Read);
  Pmp.check pmp ~mode:`U 0x1000 `Read;
  Alcotest.check_raises "no match denies U"
    (Pmp.Fault { addr = 0x20000; access = `Write })
    (fun () -> Pmp.check pmp ~mode:`U 0x20000 `Write);
  (* M-mode passes unmatched and unlocked regions. *)
  Pmp.check pmp ~mode:`M 0x20000 `Write;
  Pmp.check pmp ~mode:`M 0x2800 `Read;
  (* Locked entries bind M-mode too. *)
  Pmp.set pmp ~index:2 (range ~base:0x40000 ~len:0x1000) Perm.none ~locked:true;
  Alcotest.check_raises "locked binds M"
    (Pmp.Fault { addr = 0x40000; access = `Read })
    (fun () -> Pmp.check pmp ~mode:`M 0x40000 `Read)

let test_pmp_entry_management () =
  let c = counter () in
  let pmp = Pmp.create ~entries:4 ~counter:c () in
  Alcotest.(check int) "all free" 4 (Pmp.free_entries pmp);
  Pmp.set pmp ~index:1 (range ~base:0 ~len:4096) Perm.r ~locked:false;
  Alcotest.(check (option int)) "find_free skips used" (Some 0) (Pmp.find_free pmp);
  Pmp.set pmp ~index:0 (range ~base:4096 ~len:4096) Perm.r ~locked:true;
  Alcotest.check_raises "locked immutable" (Invalid_argument "Pmp.set: entry is locked")
    (fun () -> Pmp.set pmp ~index:0 (range ~base:0 ~len:4096) Perm.rw ~locked:false);
  Alcotest.check_raises "locked unclearable"
    (Invalid_argument "Pmp.clear: entry is locked") (fun () -> Pmp.clear pmp ~index:0);
  Pmp.reset pmp;
  Alcotest.(check int) "reset clears locked" 4 (Pmp.free_entries pmp)

let test_pmp_allows_range () =
  let c = counter () in
  let pmp = Pmp.create ~entries:4 ~counter:c () in
  Pmp.set pmp ~index:0 (range ~base:0x1000 ~len:0x2000) Perm.rw ~locked:false;
  Alcotest.(check bool) "inside allowed" true
    (Pmp.allows_range pmp ~mode:`U (range ~base:0x1000 ~len:0x2000) `Read);
  Alcotest.(check bool) "straddling denied" false
    (Pmp.allows_range pmp ~mode:`U (range ~base:0x1000 ~len:0x3000) `Read);
  Alcotest.(check bool) "exec denied" false
    (Pmp.allows_range pmp ~mode:`U (range ~base:0x1000 ~len:0x1000) `Exec)

let test_iommu () =
  let c = counter () in
  let iommu = Iommu.create ~counter:c in
  Iommu.grant iommu ~device:7 (range ~base:0x1000 ~len:0x2000) Perm.rw;
  Iommu.check iommu ~device:7 0x1800 `Write;
  Alcotest.check_raises "outside window"
    (Iommu.Dma_fault { device = 7; addr = 0x4000 })
    (fun () -> Iommu.check iommu ~device:7 0x4000 `Read);
  Alcotest.check_raises "unknown device"
    (Iommu.Dma_fault { device = 9; addr = 0x1000 })
    (fun () -> Iommu.check iommu ~device:9 0x1000 `Read);
  (* Revoking the middle splits the window. *)
  Iommu.revoke_range iommu ~device:7 (range ~base:0x1800 ~len:0x800);
  Iommu.check iommu ~device:7 0x1000 `Read;
  Iommu.check iommu ~device:7 0x2000 `Read;
  Alcotest.check_raises "revoked hole"
    (Iommu.Dma_fault { device = 7; addr = 0x1800 })
    (fun () -> Iommu.check iommu ~device:7 0x1800 `Read);
  Alcotest.(check int) "two windows" 2 (List.length (Iommu.windows iommu ~device:7));
  Iommu.revoke_all iommu ~device:7;
  Alcotest.(check bool) "nothing reaches" false
    (Iommu.device_reaches iommu ~device:7 (range ~base:0 ~len:0x100000))

let test_device () =
  let gpu = Device.create ~kind:Device.Gpu ~bus:3 ~dev:0 ~fn:0 ~sriov_vfs:2 () in
  Alcotest.(check string) "bdf string" "03:00.0" (Device.bdf_string gpu);
  Alcotest.(check int) "vf count" 2 (List.length (Device.virtual_functions gpu));
  List.iter
    (fun vf ->
      Alcotest.(check bool) "vf flag" true (Device.is_virtual_function vf);
      Alcotest.(check bool) "distinct bdf" true (Device.bdf vf <> Device.bdf gpu))
    (Device.virtual_functions gpu);
  Alcotest.check_raises "bad bdf" (Invalid_argument "Device.create: invalid BDF")
    (fun () -> ignore (Device.create ~kind:Device.Nic ~bus:256 ~dev:0 ~fn:0 ()))

let test_device_dma () =
  let c = counter () in
  let mem = Physmem.create ~size:(64 * 1024) in
  let iommu = Iommu.create ~counter:c in
  let nic = Device.create ~kind:Device.Nic ~bus:1 ~dev:0 ~fn:0 () in
  Iommu.grant iommu ~device:(Device.bdf nic) (range ~base:0x1000 ~len:0x1000) Perm.rw;
  Device.dma_write nic iommu mem 0x1000 "packet";
  Alcotest.(check string) "dma write landed" "packet"
    (Device.dma_read nic iommu mem (range ~base:0x1000 ~len:6));
  Alcotest.check_raises "dma outside window"
    (Iommu.Dma_fault { device = Device.bdf nic; addr = 0x3000 })
    (fun () -> Device.dma_write nic iommu mem 0x3000 "evil")

let test_tlb () =
  let c = counter () in
  let tlb = Tlb.create ~counter:c in
  Tlb.fill tlb ~asid:1 ~gpa:0x5000 ~hpa:0x9000;
  Alcotest.(check (option int)) "hit with offset" (Some 0x9123)
    (Tlb.lookup tlb ~asid:1 ~gpa:0x5123);
  Alcotest.(check (option int)) "other asid misses" None
    (Tlb.lookup tlb ~asid:2 ~gpa:0x5000);
  Tlb.fill tlb ~asid:2 ~gpa:0x5000 ~hpa:0xa000;
  Alcotest.(check int) "stale entries found" 1
    (List.length (Tlb.stale_for_hpa tlb (range ~base:0x9000 ~len:4096)));
  Tlb.flush_asid tlb ~asid:1;
  Alcotest.(check (option int)) "asid flushed" None (Tlb.lookup tlb ~asid:1 ~gpa:0x5000);
  Alcotest.(check bool) "other asid survives" true
    (Tlb.lookup tlb ~asid:2 ~gpa:0x5000 <> None);
  Tlb.flush_all tlb;
  Alcotest.(check int) "all flushed" 0 (Tlb.entries tlb)

let test_tlb_shootdown_cost () =
  let c = counter () in
  let tlb = Tlb.create ~counter:c in
  Cycles.reset c;
  Tlb.shootdown tlb ~remote_cores:3;
  Alcotest.(check int) "IPI cost per remote core"
    ((3 * Cycles.Cost.tlb_shootdown_ipi) + Cycles.Cost.tlb_flush_full)
    (Cycles.read c)

let test_cache () =
  let c = counter () in
  let cache = Cache.create ~counter:c in
  Cache.touch cache ~tag:1 0x100;
  Cache.touch cache ~tag:1 0x140;
  Cache.touch cache ~tag:2 0x100;
  (* tag 2 stole the line at 0x100 *)
  Alcotest.(check int) "resident" 2 (Cache.resident_lines cache);
  Alcotest.(check int) "tag1 lines" 1 (Cache.lines_tagged cache ~tag:1);
  Alcotest.(check int) "tag2 lines" 1 (Cache.lines_tagged cache ~tag:2);
  Cache.flush_range cache (range ~base:0x100 ~len:64);
  Alcotest.(check int) "line flushed" 0 (Cache.lines_tagged cache ~tag:2);
  Cache.flush_all cache;
  Alcotest.(check int) "all flushed" 0 (Cache.resident_lines cache)

let test_cycles () =
  let c = counter () in
  Cycles.charge c 100;
  let (), spent = Cycles.charged c (fun () -> Cycles.charge c 42) in
  Alcotest.(check int) "charged measures delta" 42 spent;
  Alcotest.(check int) "total accumulates" 142 (Cycles.read c);
  Cycles.reset c;
  Alcotest.(check int) "reset" 0 (Cycles.read c)

let test_interrupts () =
  let c = counter () in
  let ic = Interrupt.create ~counter:c in
  Interrupt.route ic ~vector:32 ~core:1;
  Interrupt.permit ic ~device:7 ~vector:32;
  Alcotest.(check int) "delivered to core" 1 (Interrupt.post ic ~device:7 ~vector:32);
  Alcotest.(check (list (pair int int))) "pending" [ (7, 32) ] (Interrupt.pending ic ~core:1);
  Interrupt.ack ic ~core:1;
  Alcotest.(check (list (pair int int))) "acked" [] (Interrupt.pending ic ~core:1);
  Alcotest.check_raises "unpermitted blocked"
    (Interrupt.Blocked { device = 8; vector = 32 })
    (fun () -> ignore (Interrupt.post ic ~device:8 ~vector:32));
  Interrupt.revoke_device ic ~device:7;
  Alcotest.check_raises "revoked blocked"
    (Interrupt.Blocked { device = 7; vector = 32 })
    (fun () -> ignore (Interrupt.post ic ~device:7 ~vector:32))

let test_machine () =
  let m = Hw.Machine.create ~arch:Cpu.Riscv64 ~cores:3 ~mem_size:(1024 * 1024) () in
  Alcotest.(check int) "cores" 3 (Array.length m.Machine.cores);
  let gpu = Device.create ~kind:Device.Gpu ~bus:1 ~dev:0 ~fn:0 ~sriov_vfs:1 () in
  Machine.attach_device m gpu;
  Alcotest.(check int) "device + vf attached" 2 (List.length m.Machine.devices);
  Alcotest.(check bool) "find by bdf" true (Machine.find_device m ~bdf:(Device.bdf gpu) <> None);
  Alcotest.check_raises "bad core" (Invalid_argument "Machine.core: bad core id")
    (fun () -> ignore (Machine.core m 3))

let test_cpu_modes () =
  let c = counter () in
  let x86 = Cpu.create ~arch:Cpu.X86_64 ~id:0 ~counter:c in
  let rv = Cpu.create ~arch:Cpu.Riscv64 ~id:0 ~counter:c in
  Alcotest.check_raises "x86 has no pmp"
    (Invalid_argument "Cpu.pmp: x86 cores have no PMP file") (fun () ->
      ignore (Cpu.pmp x86));
  Alcotest.check_raises "riscv has no ept"
    (Invalid_argument "Cpu.set_active_ept: RISC-V cores have no EPT") (fun () ->
      Cpu.set_active_ept rv None);
  Alcotest.check_raises "cross-arch mode"
    (Invalid_argument "Cpu.set_mode: wrong architecture") (fun () ->
      Cpu.set_mode x86 (Cpu.Riscv Cpu.M));
  Cpu.set_mode rv (Cpu.Riscv Cpu.U);
  Alcotest.(check bool) "mode set" true (Cpu.mode rv = Cpu.Riscv Cpu.U)

(* Property tests over ranges. *)

let gen_range =
  QCheck.Gen.(
    map2
      (fun base len -> Addr.Range.make ~base ~len)
      (map (fun b -> b * 256) (0 -- 200))
      (map (fun l -> (l + 1) * 256) (0 -- 50)))

let arb_range = QCheck.make ~print:(Format.asprintf "%a" Addr.Range.pp) gen_range

let prop_subtract_disjoint =
  QCheck.Test.make ~name:"range: subtract pieces are disjoint from subtrahend" ~count:200
    QCheck.(pair arb_range arb_range)
    (fun (a, b) ->
      List.for_all (fun piece -> not (Addr.Range.overlaps piece b)) (Addr.Range.subtract a b))

let prop_subtract_preserves_bytes =
  QCheck.Test.make ~name:"range: subtract + intersect partition the bytes" ~count:200
    QCheck.(pair arb_range arb_range)
    (fun (a, b) ->
      let pieces = Addr.Range.subtract a b in
      let inter = match Addr.Range.intersect a b with Some i -> Addr.Range.len i | None -> 0 in
      List.fold_left (fun acc r -> acc + Addr.Range.len r) 0 pieces + inter
      = Addr.Range.len a)

let prop_split_partitions =
  QCheck.Test.make ~name:"range: split partitions exactly" ~count:200
    QCheck.(pair arb_range (int_range 1 10_000_000))
    (fun (r, at) ->
      match Addr.Range.split_at r at with
      | None -> at <= Addr.Range.base r || at >= Addr.Range.limit r
      | Some (l, rg) ->
        Addr.Range.limit l = Addr.Range.base rg
        && Addr.Range.base l = Addr.Range.base r
        && Addr.Range.limit rg = Addr.Range.limit r)

let prop_merge_inverse_of_split =
  QCheck.Test.make ~name:"range: merge undoes split" ~count:200 arb_range (fun r ->
      let mid = Addr.Range.base r + (Addr.Range.len r / 2) in
      match Addr.Range.split_at r mid with
      | None -> true
      | Some (l, rg) -> (
        match Addr.Range.merge l rg with
        | Some m -> Addr.Range.equal m r
        | None -> false))

(* Property: the page indexes behind the EPT, cache and TLB range
   queries agree with full scans. Random sequences over a small
   address space (so gpas alias hpas and get remapped) drive all three
   structures; after each step every indexed query over a random range
   is compared with a fold-based reference twin below. The twins read
   only the primary tables ([Ept.iter_mappings], [Tlb.all_entries]) or
   a shadow of the cache's residency. *)

let space_pages = 16

type hw_op =
  | Map of int * int * Perm.t (* gpa page, hpa page *)
  | Unmap of int
  | Unmap_hpa of Addr.Range.t
  | Touch of int * Addr.t (* tag, addr *)
  | Fill of int * int * int (* asid, gpa page, hpa page *)
  | Flush_range of Addr.Range.t
  | Flush_asid of int
  | Flush_all

let pp_hw_op = function
  | Map (g, h, p) -> Printf.sprintf "map g%d->h%d %s" g h (Perm.to_string p)
  | Unmap g -> Printf.sprintf "unmap g%d" g
  | Unmap_hpa r -> Format.asprintf "unmap_hpa %a" Addr.Range.pp r
  | Touch (tag, a) -> Printf.sprintf "touch %d 0x%x" tag a
  | Fill (a, g, h) -> Printf.sprintf "fill asid%d g%d->h%d" a g h
  | Flush_range r -> Format.asprintf "flush_range %a" Addr.Range.pp r
  | Flush_asid a -> Printf.sprintf "flush_asid %d" a
  | Flush_all -> "flush_all"

let gen_space_range =
  QCheck.Gen.(
    map2
      (fun base len -> Addr.Range.make ~base ~len)
      (map (fun b -> b * 512) (0 -- ((space_pages * 8) - 1)))
      (oneof [ map (fun l -> l * 512) (1 -- 48); return (space_pages * Addr.page_size) ]))

let gen_hw_op =
  QCheck.Gen.(
    let page = 0 -- (space_pages - 1) and small = 0 -- 3 in
    frequency
      [ (4, map3 (fun g h p -> Map (g, h, p)) page page (oneofl [ Perm.r; Perm.rw; Perm.rx ]));
        (1, map (fun g -> Unmap g) page);
        (1, map (fun r -> Unmap_hpa r) gen_space_range);
        (4, map2 (fun tag a -> Touch (tag, a)) small (0 -- ((space_pages * Addr.page_size) - 1)));
        (4, map3 (fun a g h -> Fill (a, g, h)) small page page);
        (1, map (fun r -> Flush_range r) gen_space_range);
        (1, map (fun a -> Flush_asid a) small);
        (1, return Flush_all) ])

let ref_mappings_to ept range =
  let acc = ref [] in
  Ept.iter_mappings ept (fun ~gpa ~hpa perm ->
      if Addr.Range.contains range hpa then acc := (gpa, hpa, perm) :: !acc);
  List.sort compare !acc

let ref_hpa_reachable ept addr =
  let acc = ref Perm.none in
  Ept.iter_mappings ept (fun ~gpa:_ ~hpa perm ->
      if hpa = Addr.align_down addr then acc := Perm.union !acc perm);
  !acc

let ref_reaches ept range =
  let hit = ref false in
  Ept.iter_mappings ept (fun ~gpa:_ ~hpa _ ->
      if Addr.Range.overlaps range (Addr.Range.make ~base:hpa ~len:Addr.page_size) then
        hit := true);
  !hit

let ref_resident_lines_in shadow range =
  let first = Addr.Range.base range / Cache.line_size
  and last = Addr.Range.last range / Cache.line_size in
  Hashtbl.fold (fun l _ acc -> if l >= first && l <= last then l :: acc else acc) shadow []
  |> List.sort compare

let ref_lines_of_tag shadow tag =
  Hashtbl.fold (fun l t acc -> if t = tag then l :: acc else acc) shadow [] |> List.sort compare

let ref_entries_into tlb ~asid range =
  List.filter_map
    (fun (a, gpa, hpa) ->
      if a = asid && Addr.Range.overlaps range (Addr.Range.make ~base:hpa ~len:Addr.page_size)
      then Some (a, gpa)
      else None)
    (Tlb.all_entries tlb)
  |> List.sort compare

let prop_indexes_agree_with_scans =
  QCheck.Test.make ~name:"ept/cache/tlb: page indexes agree with full scans" ~count:300
    QCheck.(
      make
        ~print:(fun steps ->
          String.concat "; "
            (List.map
               (fun (op, r) -> Format.asprintf "%s ? %a" (pp_hw_op op) Addr.Range.pp r)
               steps))
        Gen.(list_size (1 -- 60) (pair gen_hw_op gen_space_range)))
    (fun steps ->
      let c = counter () in
      let ept = Ept.create ~counter:c
      and cache = Cache.create ~counter:c
      and tlb = Tlb.create ~counter:c in
      let shadow = Hashtbl.create 64 in
      let pg n = n * Addr.page_size in
      let sorted l = List.sort compare l in
      List.for_all
        (fun (op, q) ->
          let step_ok =
            match op with
            | Map (g, h, p) -> Ept.map_page ept ~gpa:(pg g) ~hpa:(pg h) p; true
            | Unmap g -> Ept.unmap_page ept ~gpa:(pg g); true
            | Unmap_hpa r ->
              let expected = List.length (ref_mappings_to ept r) in
              Ept.unmap_hpa_range ept r = expected && ref_mappings_to ept r = []
            | Touch (tag, a) ->
              Cache.touch cache ~tag a;
              Hashtbl.replace shadow (a / Cache.line_size) tag;
              true
            | Fill (a, g, h) -> Tlb.fill tlb ~asid:a ~gpa:(pg g) ~hpa:(pg h); true
            | Flush_range r ->
              Cache.flush_range cache r;
              List.iter (Hashtbl.remove shadow) (ref_resident_lines_in shadow r);
              true
            | Flush_asid a -> Tlb.flush_asid tlb ~asid:a; true
            | Flush_all ->
              Cache.flush_all cache;
              Tlb.flush_all tlb;
              Hashtbl.reset shadow;
              true
          in
          step_ok
          && sorted (Ept.mappings_to ept q) = ref_mappings_to ept q
          && Perm.equal (Ept.hpa_reachable ept (Addr.Range.base q))
               (ref_hpa_reachable ept (Addr.Range.base q))
          && Ept.reaches_hpa_range ept q = ref_reaches ept q
          && Cache.resident_lines cache = Hashtbl.length shadow
          && sorted (Cache.resident_lines_in cache q) = ref_resident_lines_in shadow q
          && List.for_all
               (fun tag ->
                 sorted (Cache.lines_of_tag cache ~tag) = ref_lines_of_tag shadow tag
                 && sorted (Tlb.entries_into tlb ~asid:tag q) = ref_entries_into tlb ~asid:tag q)
               [ 0; 1; 2; 3 ]
          && sorted (Tlb.stale_for_hpa tlb q)
             = sorted
                 (List.concat_map
                    (fun asid -> ref_entries_into tlb ~asid q)
                    [ 0; 1; 2; 3 ]))
        steps)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "hw"
    [ ( "addr",
        [ Alcotest.test_case "alignment" `Quick test_addr_alignment;
          Alcotest.test_case "range basics" `Quick test_range_basics;
          Alcotest.test_case "set operations" `Quick test_range_set_ops;
          Alcotest.test_case "merge/split" `Quick test_range_merge_split;
          Alcotest.test_case "pages" `Quick test_range_pages;
          qt prop_subtract_disjoint;
          qt prop_subtract_preserves_bytes;
          qt prop_split_partitions;
          qt prop_merge_inverse_of_split ] );
      ( "physmem",
        [ Alcotest.test_case "read/write" `Quick test_physmem_rw;
          Alcotest.test_case "zero + measure" `Quick test_physmem_zero_measure;
          Alcotest.test_case "blit" `Quick test_physmem_blit ] );
      ("perm", [ Alcotest.test_case "lattice" `Quick test_perm ]);
      ( "ept",
        [ Alcotest.test_case "map/translate" `Quick test_ept_map_translate;
          Alcotest.test_case "range ops" `Quick test_ept_range_ops;
          Alcotest.test_case "eptp list" `Quick test_eptp_list ] );
      ( "pmp",
        [ Alcotest.test_case "priority + modes" `Quick test_pmp_priority_and_modes;
          Alcotest.test_case "entry management" `Quick test_pmp_entry_management;
          Alcotest.test_case "allows_range" `Quick test_pmp_allows_range ] );
      ( "iommu+device",
        [ Alcotest.test_case "iommu windows" `Quick test_iommu;
          Alcotest.test_case "devices + SR-IOV" `Quick test_device;
          Alcotest.test_case "dma through iommu" `Quick test_device_dma ] );
      ( "microarch",
        [ Alcotest.test_case "tlb" `Quick test_tlb;
          Alcotest.test_case "tlb shootdown cost" `Quick test_tlb_shootdown_cost;
          Alcotest.test_case "cache tags" `Quick test_cache;
          Alcotest.test_case "cycle accounting" `Quick test_cycles;
          qt prop_indexes_agree_with_scans ] );
      ( "machine",
        [ Alcotest.test_case "interrupt routing" `Quick test_interrupts;
          Alcotest.test_case "assembly" `Quick test_machine;
          Alcotest.test_case "cpu modes" `Quick test_cpu_modes ] ) ]
