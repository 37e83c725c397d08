type tlb_strategy = Full_shootdown | Asid_flush

(* A domain's memory as disjoint ranges keyed by base, each carrying
   the union of the permissions of the holdings that cover it — the
   permission its EPT pages carry. Persistent, so an undo record keeps
   the old map in O(1); an attach or detach touches only the entries
   overlapping its range. *)
module Mem_map = struct
  module M = Map.Make (Int)

  type t = (int * Hw.Perm.t) M.t (* base -> (limit, perm) *)

  let empty = M.empty

  (* Entries overlapping [lo, hi), in address order. *)
  let overlapping m ~lo ~hi =
    let rec from seq acc =
      match seq () with
      | Seq.Cons ((b, (l, p)), rest) when b < hi -> from rest ((b, l, p) :: acc)
      | _ -> List.rev acc
    in
    let after = from (M.to_seq_from lo m) [] in
    match M.find_last_opt (fun b -> b < lo) m with
    | Some (b, (l, p)) when l > lo -> (b, l, p) :: after
    | _ -> after

  let put b l p m = if b < l then M.add b (l, p) m else m

  (* Drop [lo, hi) from the overlapping entries, keeping their parts
     outside it. *)
  let cut m ~lo ~hi olap =
    List.fold_left (fun m (b, l, p) -> M.remove b m |> put b lo p |> put hi l p) m olap

  let bounds r = (Hw.Addr.Range.base r, Hw.Addr.Range.limit r)

  let remove r m =
    let lo, hi = bounds r in
    cut m ~lo ~hi (overlapping m ~lo ~hi)

  let add r perm m =
    let lo, hi = bounds r in
    let olap = overlapping m ~lo ~hi in
    let rec fill pos olap m =
      match olap with
      | [] -> put pos hi perm m
      | (b, l, p) :: rest ->
        let b = max b lo and l = min l hi in
        fill l rest (put pos b perm m |> M.add b (l, Hw.Perm.union p perm))
    in
    fill lo olap (cut m ~lo ~hi olap)

  (* The pieces of [r] the map covers, with their permissions. *)
  let within m r =
    let lo, hi = bounds r in
    List.map
      (fun (b, l, p) -> (Hw.Addr.Range.of_bounds ~lo:(max b lo) ~hi:(min l hi), p))
      (overlapping m ~lo ~hi)

  let iter f m = M.iter (fun b (l, p) -> f (Hw.Addr.Range.of_bounds ~lo:b ~hi:l) p) m
end

type state = {
  machine : Hw.Machine.t;
  tlb_strategy : tlb_strategy;
  mktme : Hw.Mktme.t option;
  keyids : (Tyche.Domain.id, Hw.Mktme.keyid) Hashtbl.t;
  confidential : (Tyche.Domain.id, unit) Hashtbl.t;
  mutable next_keyid : int;
  epts : (Tyche.Domain.id, Hw.Ept.t) Hashtbl.t;
  eptp_lists : (Tyche.Domain.id, Hw.Ept.Eptp_list.t) Hashtbl.t;
  domain_mem : (Tyche.Domain.id, Mem_map.t ref) Hashtbl.t;
  domain_devices : (Tyche.Domain.id, int list ref) Hashtbl.t;
  mutable fast : int;
  mutable trap : int;
  (* Hardware undo journal (see Backend_riscv for the discipline):
     while [journaling], every EPT/MKTME/IOMMU/table mutation prepends
     its inverse; destructive clean-ups (zeroing) wait in [deferred]
     until commit. TLB and cache flushes need no undo — over-flushing
     is always safe. *)
  mutable journal : (unit -> unit) list;
  mutable journaling : bool;
  mutable deferred : (unit -> unit) list;
  (* ASIDs a detach in the open transaction left with stale TLB
     entries: commit invalidates them once, not once per detach. *)
  mutable stale_asids : int list;
}

(* Associates the opaque backend records handed to the monitor with
   their internal state, for test/bench introspection. *)
let registry : state Tyche.Backend_intf.Registry.t = Tyche.Backend_intf.Registry.create ()

let state_of backend =
  match Tyche.Backend_intf.Registry.find registry backend with
  | Some s -> s
  | None -> invalid_arg "Backend_x86: not a backend created by this module"

let flush_tlb s asids =
  let m = s.machine in
  match s.tlb_strategy with
  | Full_shootdown ->
    Hw.Tlb.shootdown m.Hw.Machine.tlb ~remote_cores:(Array.length m.Hw.Machine.cores - 1)
  | Asid_flush -> List.iter (fun asid -> Hw.Tlb.flush_asid m.Hw.Machine.tlb ~asid) asids

(* After a detach from [domain]: inside a transaction, only note the
   ASID; commit runs one shootdown for the lot. No guest access runs
   inside a transaction, so the stale entries cannot be used before. *)
let invalidate_tlb s domain =
  if not s.journaling then flush_tlb s [ domain ]
  else if not (List.mem domain s.stale_asids) then s.stale_asids <- domain :: s.stale_asids

(* --- transactions --------------------------------------------------- *)

let record s undo = s.journal <- undo :: s.journal

let defer s cleanup = if s.journaling then s.deferred <- cleanup :: s.deferred else cleanup ()

let txn_begin s =
  if s.journaling then invalid_arg "Backend_x86.txn_begin: transaction already open";
  s.journal <- [];
  s.deferred <- [];
  s.stale_asids <- [];
  s.journaling <- true;
  let fast = s.fast and trap = s.trap in
  record s (fun () ->
    s.fast <- fast;
    s.trap <- trap)

let txn_commit s =
  let cleanups = List.rev s.deferred and stale = s.stale_asids in
  s.journaling <- false;
  s.journal <- [];
  s.deferred <- [];
  s.stale_asids <- [];
  if stale <> [] then flush_tlb s stale;
  List.iter (fun f -> f ()) cleanups

let txn_rollback s =
  let undos = s.journal in
  s.journaling <- false;
  s.journal <- [];
  s.deferred <- [];
  (* The undo restores every unmapped entry, so the TLB entries of the
     recorded ASIDs are valid again: nothing to invalidate. *)
  s.stale_asids <- [];
  (* Undo closures replay EPT/IOMMU writes; they must not re-trip the
     fault plan that caused the rollback. *)
  Fault.suspend (fun () -> List.iter (fun f -> f ()) undos)

let fault_error = function
  | Fault.Injected { point; trip } ->
    Printf.sprintf "fault injected at %s (trip %d)" point trip
  | e -> raise e

let mem_of s domain =
  match Hashtbl.find_opt s.domain_mem domain with
  | Some l -> l
  | None ->
    let l = ref Mem_map.empty in
    Hashtbl.add s.domain_mem domain l;
    l

let devices_of s domain =
  match Hashtbl.find_opt s.domain_devices domain with
  | Some l -> l
  | None ->
    let l = ref [] in
    Hashtbl.add s.domain_devices domain l;
    l

let journal_mem s domain =
  if s.journaling then begin
    let l = mem_of s domain in
    let old = !l in
    record s (fun () -> l := old)
  end

let journal_devices s domain =
  if s.journaling then begin
    let l = devices_of s domain in
    let old = !l in
    record s (fun () -> l := old)
  end

let journal_iommu s device =
  if s.journaling then begin
    let iommu = s.machine.Hw.Machine.iommu in
    let ws = Hw.Iommu.windows iommu ~device in
    record s (fun () -> Hw.Iommu.set_windows iommu ~device ws)
  end

let dma_perm perm = Hw.Perm.inter perm Hw.Perm.rw

(* MKTME: protect memory attached to a confidential domain under its
   key; memory attached to anyone else reverts to plaintext-on-bus. *)
let mktme_on_attach s domain range =
  match s.mktme with
  | None -> ()
  | Some controller ->
    if Hashtbl.mem s.confidential domain then begin
      match Hashtbl.find_opt s.keyids domain with
      | Some keyid ->
        if s.journaling then record s (fun () -> Hw.Mktme.unprotect controller range);
        Hw.Mktme.protect controller ~keyid range
      | None ->
        if s.next_keyid < Hw.Mktme.slots controller then begin
          let keyid = s.next_keyid in
          if s.journaling then
            record s (fun () ->
              Hw.Mktme.unprotect controller range;
              Hashtbl.remove s.keyids domain;
              s.next_keyid <- keyid);
          s.next_keyid <- keyid + 1;
          Hashtbl.replace s.keyids domain keyid;
          Hw.Mktme.protect controller ~keyid range
        end
        (* slots exhausted: the domain runs unencrypted, like real parts *)
    end
    else
      (* Freshly attached plaintext memory was not under a key: undoing
         this unprotect is a no-op, so none is journaled. *)
      Hw.Mktme.unprotect controller range

let mktme_on_detach s range =
  match s.mktme with
  | None -> ()
  | Some controller ->
    if s.journaling then begin
      match Hw.Mktme.keyid_of controller (Hw.Addr.Range.base range) with
      | Some keyid -> record s (fun () -> Hw.Mktme.protect controller ~keyid range)
      | None -> ()
    end;
    Hw.Mktme.unprotect controller range

(* Hoisted span handles: one registry lookup per process, not per
   hardware write (see {!Obs.Profile.handle}). *)
let h_ept_map = Obs.Profile.handle "ept.map"
let h_ept_unmap = Obs.Profile.handle "ept.unmap"
let h_taint_detach = Obs.Profile.handle "taint.detach"
let h_iommu_grant = Obs.Profile.handle "iommu.grant"
let h_iommu_revoke = Obs.Profile.handle "iommu.revoke"
let bk_x86 = Obs.intern "x86_64-vtx"

let attach_memory s domain range perm =
  Obs.Profile.span_h ~domain ~backend:bk_x86 h_ept_map @@ fun () ->
  match Hashtbl.find_opt s.epts domain with
  | None -> Error (Printf.sprintf "no EPT for domain %d" domain)
  | Some ept ->
    if s.journaling then begin
      (* Eagerly capture each page's prior entry: the hypervisor may map
         non-identity gpas, so the undo cannot be rebuilt from the memory
         map. A mid-range injected fault leaves a prefix mapped; the
         undo handles pages we never reached (prior None, still None). *)
      let base = Hw.Addr.Range.base range and limit = Hw.Addr.Range.limit range in
      let rec pages gpa acc =
        if gpa >= limit then acc
        else pages (gpa + Hw.Addr.page_size) ((gpa, Hw.Ept.entry_at ept ~gpa) :: acc)
      in
      let prior = pages base [] in
      record s (fun () ->
        List.iter
          (fun (gpa, old) ->
            match old with
            | Some (hpa, perm) -> Hw.Ept.map_page ept ~gpa ~hpa perm
            | None -> if Hw.Ept.entry_at ept ~gpa <> None then Hw.Ept.unmap_page ept ~gpa)
          prior)
    end;
    (* A page's EPT permission is the union of the domain's holdings
       covering it: a weaker overlapping grant must not take away
       access the domain still holds. *)
    let mem = mem_of s domain in
    let held = Mem_map.add range perm !mem in
    List.iter
      (fun (piece, perm) -> Hw.Ept.map_range ept ~gpa:(Hw.Addr.Range.base piece) piece perm)
      (Mem_map.within held range);
    mktme_on_attach s domain range;
    journal_mem s domain;
    mem := held;
    List.iter
      (fun bdf ->
        journal_iommu s bdf;
        Hw.Iommu.grant s.machine.Hw.Machine.iommu ~device:bdf range (dma_perm perm))
      !(devices_of s domain);
    Ok ()

(* Mark what the victim leaves behind — its pages, its resident cache
   lines, its live translations — with its id before any clean-up runs.
   The clean-up primitives the policy promises (deferred zero, cache
   flush, TLB shootdown) erase exactly the taint they clean, so
   whatever taint survives the transaction is clean-up that did not
   happen — which the access paths and the fsck taint pass then catch
   (see Hw.Taint). Must run before the unmap/flush below: the TLB
   victim set has to be captured while the entries still exist. *)
let taint_detach s domain range cleanup =
  let m = s.machine in
  let tt = m.Hw.Machine.taint in
  let u_pages =
    Hw.Taint.taint_pages tt range ~prior:domain
      ~guarded:(Cap.Revocation.zeroes_memory cleanup)
  in
  let u_lines =
    Hw.Taint.taint_lines tt
      (Hw.Cache.resident_lines_in m.Hw.Machine.cache range)
      ~prior:domain
      ~guarded:(Cap.Revocation.flushes_cache cleanup)
  in
  let u_tlb =
    Hw.Taint.taint_tlb tt
      (Hw.Tlb.entries_into m.Hw.Machine.tlb ~asid:domain range)
      ~prior:domain
  in
  if s.journaling then
    record s (fun () ->
      Hw.Taint.undo tt u_tlb;
      Hw.Taint.undo tt u_lines;
      Hw.Taint.undo tt u_pages)

let detach_memory s domain range cleanup =
  match Hashtbl.find_opt s.epts domain with
  | None -> Error (Printf.sprintf "no EPT for domain %d" domain)
  | Some ept ->
    Obs.Profile.span_h ~domain ~backend:bk_x86 h_taint_detach (fun () ->
        taint_detach s domain range cleanup);
    Obs.Profile.span_h ~domain ~backend:bk_x86 h_ept_unmap @@ fun () ->
    if s.journaling then begin
      let victims = Hw.Ept.mappings_to ept range in
      record s (fun () ->
        List.iter (fun (gpa, hpa, perm) -> Hw.Ept.map_page ept ~gpa ~hpa perm) victims)
    end;
    let (_ : int) = Hw.Ept.unmap_hpa_range ept range in
    mktme_on_detach s range;
    invalidate_tlb s domain;
    List.iter
      (fun bdf ->
        journal_iommu s bdf;
        Hw.Iommu.revoke_range s.machine.Hw.Machine.iommu ~device:bdf range)
      !(devices_of s domain);
    journal_mem s domain;
    let mem = mem_of s domain in
    mem := Mem_map.remove range !mem;
    (* Zeroing is destructive: stage it so a later failure in the same
       transaction never needs to un-zero memory. *)
    defer s (fun () ->
      Cap.Revocation.apply cleanup ~mem:s.machine.Hw.Machine.mem
        ~cache:s.machine.Hw.Machine.cache ~counter:s.machine.Hw.Machine.counter range);
    Ok ()

let attach_device s domain bdf =
  Obs.Profile.span_h ~domain ~backend:bk_x86 h_iommu_grant @@ fun () ->
  journal_devices s domain;
  let devices = devices_of s domain in
  devices := bdf :: !devices;
  journal_iommu s bdf;
  Mem_map.iter
    (fun range perm ->
      Hw.Iommu.grant s.machine.Hw.Machine.iommu ~device:bdf range (dma_perm perm))
    !(mem_of s domain);
  Ok ()

let detach_device s domain bdf =
  Obs.Profile.span_h ~domain ~backend:bk_x86 h_iommu_revoke @@ fun () ->
  journal_iommu s bdf;
  if s.journaling then begin
    let interrupts = s.machine.Hw.Machine.interrupts in
    let vectors = Hw.Interrupt.permitted interrupts ~device:bdf in
    record s (fun () ->
      List.iter (fun vector -> Hw.Interrupt.permit interrupts ~device:bdf ~vector) vectors)
  end;
  Hw.Iommu.revoke_all s.machine.Hw.Machine.iommu ~device:bdf;
  Hw.Interrupt.revoke_device s.machine.Hw.Machine.interrupts ~device:bdf;
  journal_devices s domain;
  let devices = devices_of s domain in
  devices := List.filter (fun d -> d <> bdf) !devices;
  Ok ()

let apply_effect_unsafe s = function
  | Cap.Captree.Attach { domain; resource = Cap.Resource.Memory r; perm } ->
    attach_memory s domain r perm
  | Cap.Captree.Detach { domain; resource = Cap.Resource.Memory r; cleanup } ->
    detach_memory s domain r cleanup
  | Cap.Captree.Attach { domain; resource = Cap.Resource.Device bdf; _ } ->
    attach_device s domain bdf
  | Cap.Captree.Detach { domain; resource = Cap.Resource.Device bdf; _ } ->
    detach_device s domain bdf
  | Cap.Captree.Attach { resource = Cap.Resource.Cpu_core _; _ }
  | Cap.Captree.Detach { resource = Cap.Resource.Cpu_core _; _ } ->
    (* Core eligibility is checked by the monitor at transition time. *)
    Ok ()

let apply_effect s eff =
  try apply_effect_unsafe s eff with Fault.Injected _ as e -> Error (fault_error e)

let validate_attach _domain resource =
  match resource with
  | Cap.Resource.Memory r ->
    if Hw.Addr.Range.is_page_aligned r then Ok ()
    else Error "EPT backend requires page-aligned memory ranges"
  | Cap.Resource.Cpu_core _ | Cap.Resource.Device _ -> Ok ()

let mode_for d =
  match Tyche.Domain.kind d with
  | Tyche.Domain.Os | Tyche.Domain.Confidential_vm ->
    Hw.Cpu.X86 { ring = 0; vmx_root = false }
  | Tyche.Domain.Sandbox | Tyche.Domain.Enclave | Tyche.Domain.Io_domain
  | Tyche.Domain.Remote ->
    Hw.Cpu.X86 { ring = 3; vmx_root = false }

let enter s ~core d =
  let id = Tyche.Domain.id d in
  if s.journaling then begin
    let old_ept = Hw.Cpu.active_ept core
    and old_asid = Hw.Cpu.asid core
    and old_mode = Hw.Cpu.mode core in
    record s (fun () ->
      Hw.Cpu.set_active_ept core old_ept;
      Hw.Cpu.set_asid core old_asid;
      Hw.Cpu.set_mode core old_mode)
  end;
  Hw.Cpu.set_active_ept core (Hashtbl.find_opt s.epts id);
  Hw.Cpu.set_asid core (Tyche.Domain.asid d);
  Hw.Cpu.set_mode core (mode_for d)

let transition s ~core ~from_ ~to_ ~flush_microarch =
  let counter = s.machine.Hw.Machine.counter in
  let from_id = Tyche.Domain.id from_ and to_id = Tyche.Domain.id to_ in
  let from_list = Hashtbl.find_opt s.eptp_lists from_id in
  let to_ept = Hashtbl.find_opt s.epts to_id in
  let fast_path_ready =
    (not flush_microarch)
    && (match from_list, to_ept with
       | Some l, Some e -> Hw.Ept.Eptp_list.slot_of l e <> None
       | _ -> false)
  in
  let path =
    if fast_path_ready then begin
      Hw.Cycles.charge counter Hw.Cycles.Cost.vmfunc;
      s.fast <- s.fast + 1;
      Tyche.Backend_intf.Fast_switch
    end
    else begin
      Hw.Cycles.charge counter Hw.Cycles.Cost.vmcall_roundtrip;
      s.trap <- s.trap + 1;
      if flush_microarch then begin
        (* Everything the outgoing domain left in the caches and the
           TLB is promised gone by this policy: taint it guarded, then
           flush — surviving taint means the flush regressed. *)
        let m = s.machine in
        let tt = m.Hw.Machine.taint in
        let u_lines =
          Hw.Taint.taint_lines tt
            (Hw.Cache.lines_of_tag m.Hw.Machine.cache ~tag:from_id)
            ~prior:from_id ~guarded:true
        in
        let u_tlb =
          Hw.Taint.taint_tlb tt
            (Hw.Tlb.entries_into m.Hw.Machine.tlb ~asid:from_id
               (Hw.Physmem.full_range m.Hw.Machine.mem))
            ~prior:from_id
        in
        if s.journaling then
          record s (fun () ->
            Hw.Taint.undo tt u_tlb;
            Hw.Taint.undo tt u_lines);
        Hw.Cache.flush_all s.machine.Hw.Machine.cache;
        Hw.Tlb.flush_asid s.machine.Hw.Machine.tlb ~asid:from_id
      end
      else begin
        (* First trap between this pair: the monitor pre-registers the
           target EPT in the source's EPTP list so later transitions can
           take the VMFUNC path (ablation a2: silently degrades to the
           trap path forever once the 512-entry list is full). A
           registration is not rolled back with a failed transaction:
           keeping it is semantics-preserving (the pair still exists)
           and not on the invariant surface. *)
        match from_list, to_ept with
        | Some l, Some e -> ignore (Hw.Ept.Eptp_list.register l e : int option)
        | _ -> ()
      end;
      Tyche.Backend_intf.Trap_roundtrip
    end
  in
  enter s ~core to_;
  (* No fallible hardware step on this path: EPT switching cannot run
     out of resources the way PMP reprogramming can. *)
  Ok path

let domain_reaches s d range =
  match Hashtbl.find_opt s.epts (Tyche.Domain.id d) with
  | Some ept -> Hw.Ept.reaches_hpa_range ept range
  | None -> false

let create machine ?(tlb_strategy = Full_shootdown) ?mktme () =
  if machine.Hw.Machine.arch <> Hw.Cpu.X86_64 then
    invalid_arg "Backend_x86.create: machine is not x86_64";
  let s =
    { machine;
      tlb_strategy;
      mktme;
      keyids = Hashtbl.create 16;
      confidential = Hashtbl.create 16;
      next_keyid = 0;
      epts = Hashtbl.create 16;
      eptp_lists = Hashtbl.create 16;
      domain_mem = Hashtbl.create 16;
      domain_devices = Hashtbl.create 16;
      fast = 0;
      trap = 0;
      journal = [];
      journaling = false;
      deferred = [];
      stale_asids = [] }
  in
  let backend =
    { Tyche.Backend_intf.backend_name = "x86_64-vtx";
      domain_created =
        (fun d ->
          let id = Tyche.Domain.id d in
          if s.journaling then
            (* A fresh domain has no prior backend state: undo removes
               everything this call creates. *)
            record s (fun () ->
              Hashtbl.remove s.confidential id;
              Hashtbl.remove s.epts id;
              Hashtbl.remove s.eptp_lists id);
          (match Tyche.Domain.kind d with
          | Tyche.Domain.Enclave | Tyche.Domain.Confidential_vm ->
            Hashtbl.replace s.confidential id ()
          | Tyche.Domain.Os | Tyche.Domain.Sandbox | Tyche.Domain.Io_domain
          | Tyche.Domain.Remote -> ());
          Hashtbl.replace s.epts id (Hw.Ept.create ~counter:machine.Hw.Machine.counter);
          Hashtbl.replace s.eptp_lists id (Hw.Ept.Eptp_list.create ()));
      domain_destroyed =
        (fun d ->
          let id = Tyche.Domain.id d in
          if s.journaling then begin
            let ept = Hashtbl.find_opt s.epts id
            and eptp = Hashtbl.find_opt s.eptp_lists id
            and mem = Hashtbl.find_opt s.domain_mem id
            and devices = Hashtbl.find_opt s.domain_devices id
            and conf = Hashtbl.mem s.confidential id
            and keyid = Hashtbl.find_opt s.keyids id in
            record s (fun () ->
              Option.iter (Hashtbl.replace s.epts id) ept;
              Option.iter (Hashtbl.replace s.eptp_lists id) eptp;
              Option.iter (Hashtbl.replace s.domain_mem id) mem;
              Option.iter (Hashtbl.replace s.domain_devices id) devices;
              if conf then Hashtbl.replace s.confidential id ();
              Option.iter (Hashtbl.replace s.keyids id) keyid)
          end;
          Hashtbl.remove s.epts id;
          Hashtbl.remove s.eptp_lists id;
          Hashtbl.remove s.domain_mem id;
          Hashtbl.remove s.domain_devices id;
          Hashtbl.remove s.confidential id;
          Hashtbl.remove s.keyids id);
      apply_effect = (fun eff -> apply_effect s eff);
      validate_attach = (fun d r -> validate_attach d r);
      transition =
        (fun ~core ~from_ ~to_ ~flush_microarch ->
          transition s ~core ~from_ ~to_ ~flush_microarch);
      launch = (fun ~core d -> enter s ~core d);
      domain_reaches = (fun d r -> domain_reaches s d r);
      domain_encrypted =
        (fun d -> s.mktme <> None && Hashtbl.mem s.keyids (Tyche.Domain.id d));
      txn_begin = (fun () -> txn_begin s);
      txn_commit = (fun () -> txn_commit s);
      txn_rollback = (fun () -> txn_rollback s) }
  in
  Tyche.Backend_intf.Registry.add registry backend s;
  backend

let ept_of backend domain = Hashtbl.find_opt (state_of backend).epts domain

let eptp_registered backend ~from_ ~to_ =
  let s = state_of backend in
  match Hashtbl.find_opt s.eptp_lists from_, Hashtbl.find_opt s.epts to_ with
  | Some l, Some e -> Hw.Ept.Eptp_list.slot_of l e <> None
  | _ -> false

let fast_transitions backend = (state_of backend).fast
let trap_transitions backend = (state_of backend).trap
