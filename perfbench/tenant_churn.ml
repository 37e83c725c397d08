(* tenant-churn: the SaaS control plane on RISC-V, persistence on.

   A seeded stream of tenant lifecycles runs against one monitor whose
   redo log goes to an in-memory store. The control plane admits
   tenants in waves of [wave]: each tenant is created (enclave or
   sandbox), gets a carved and granted run of 1-64 pages holding its
   image, a core, and a channel page it shares with a standing peer,
   has its image marked measured, and is sealed. Each tenant then runs
   [k_pairs] call/ret pairs with a store into its memory. The wave is
   attested with one batch signature and every report goes to the
   verifier, which checks it against the tenant's policy (with the
   clock paused, see [Rig.submit]); a seeded quarter of the waves
   is attested again on the unchanged tree (attestation-memo hits).
   A wave's tenants stay live until the next wave is admitted, then are
   destroyed, their channel share revoked and their slot coalesced
   back to one capability — so the standing population is [slots]
   tenants, sized to fit the PMP budget (C8).

   The attestation signer holds 2^[signer_height] one-time keys and
   cannot be rotated; one wave spends one or two. *)

let arch = Hw.Cpu.Riscv64
let cores = 2
let mem_size = 16 * 1024 * 1024
let signer_height = 11
let snapshot_every = 256
let fsync_every = 8
let slots = 12
let wave = 12
let slot_pages = 64
let k_pairs = 16
let images = 12

(* Sixteen passes over the image deck: 192 tenants. *)
let slice_steps = 16 * images / wave

(* heap_peak_mb is read once this many ops have been attempted. *)
let heap_ops = 100_000

let slot_base = 0x400000
let nonce = "perfbench-tenant-churn"

type image = {
  pages : int;
  header : string;
  kind : Tyche.Domain.kind;
  measurement : Crypto.Sha256.digest;
}

type tenant = {
  id : Tyche.Domain.id;
  slot : int;
  img : image;
  mutable peer_share : Cap.Captree.cap_id option;
  mutable spent_ns : int; (* wall time of this tenant's own ops *)
  mutable clean : bool; (* admitted whole, no op of it traced *)
}

type t = {
  node : Rig.node;
  root : Crypto.Sha256.digest;
  rng : Random.State.t;
  peer : Tyche.Domain.id;
  slot_cap : Cap.Captree.cap_id array; (* one 64-page capability per slot *)
  chan_cap : Cap.Captree.cap_id array; (* the slot's channel page *)
  library : image array;
  picks : Rig.deck; (* which image the next tenant runs *)
  reattest : Rig.deck; (* one wave in four is attested again *)
  free : int Queue.t;
  live : tenant Queue.t;
  mutable keys_used : int;
}

let network _ = None
let monitors t = [ t.node.Rig.monitor ]
let machines t = [ t.node.Rig.machine ]
let signer_budget = (1 lsl signer_height) - 4
let exhausted t = t.keys_used + 2 > signer_budget

let slot_range i = Rig.range ~base:(slot_base + (i * (slot_pages + 1) * Rig.page)) ~pages:slot_pages

let chan_range i =
  Rig.range ~base:(slot_base + ((i * (slot_pages + 1)) + slot_pages) * Rig.page) ~pages:1

(* Image [i] of the library: sizes spread evenly over 1..64 pages,
   enclaves and sandboxes alternating, content from the seed. *)
let make_image rng i =
  let pages = 1 + (i * (slot_pages - 1) / (images - 1)) in
  let kind = if i land 1 = 0 then Tyche.Domain.Enclave else Tyche.Domain.Sandbox in
  let header =
    String.concat ""
      (List.init 8 (fun _ -> Printf.sprintf "tenant-image-%02d-%08x;" i (Random.State.bits rng)))
  in
  let content = header ^ String.make ((pages * Rig.page) - String.length header) '\000' in
  { pages; header; kind;
    measurement = Rig.expected_measurement ~kind ~entry_offset:0 ~content }

let setup ~seed ~trace ~(split : Rig.setup_split) =
  let node =
    Rig.boot_node ~split ~trace ~arch ~cores ~mem_size ~seed ~signer_height
      ~store:(Some (Persist.Store.mem ())) ()
  in
  let t0 = Clock.now_ns () in
  let m = node.Rig.monitor in
  Tyche.Monitor.enable_persistence m ~store:(Option.get node.Rig.store) ~snapshot_every
    ~fsync_every ();
  let root = Rig.establish_trust node ~nonce in
  let rng = Random.State.make [| seed; 0x7e4a47 |] in
  let peer =
    Rig.call_domain m ~caller:Rig.os ~core:0
      (Tyche.Api.Create_domain { name = "peer"; kind = Tyche.Domain.Sandbox })
  in
  let carve r =
    Rig.call_cap m ~caller:Rig.os ~core:0
      (Tyche.Api.Carve { cap = Rig.cap_over m ~owner:Rig.os r; subrange = r })
  in
  let slot_cap = Array.init slots (fun i -> carve (slot_range i)) in
  let chan_cap = Array.init slots (fun i -> carve (chan_range i)) in
  let library = Array.init images (make_image rng) in
  let free = Queue.create () in
  for i = 0 to slots - 1 do
    Queue.add i free
  done;
  split.Rig.populate_s <- split.Rig.populate_s +. Clock.seconds_since t0;
  { node; root; rng; peer; slot_cap; chan_cap; library; picks = Rig.deck rng images;
    reattest = Rig.deck rng 4; free; live = Queue.create (); keys_used = 0 }

let timed_on tenant f =
  if !Trace.recording then tenant.clean <- false;
  let t0 = Clock.now_ns () in
  let v = f () in
  tenant.spent_ns <- tenant.spent_ns + (Clock.now_ns () - t0);
  v

let call_unit t c = Rig.call_unit t.node.Rig.monitor ~caller:Rig.os ~core:0 c
let call_cap t c = Rig.call_cap t.node.Rig.monitor ~caller:Rig.os ~core:0 c

(* create -> image -> carve + grant -> core -> channel -> measure -> seal.
   The tenant joins [live] as soon as its domain exists, so a failure
   part-way leaves it to be retired (and its slot freed) like any
   other. *)
let admit t =
  let m = t.node.Rig.monitor in
  let slot =
    match Queue.take_opt t.free with
    | Some s -> s
    | None -> Rig.fail_before_op "admit" "no free slot"
  in
  let img = t.library.(Rig.draw t.picks) in
  let t0 = Clock.now_ns () in
  let id =
    try
      Rig.call_domain m ~caller:Rig.os ~core:0
        (Tyche.Api.Create_domain { name = Printf.sprintf "tenant-%d" !Rig.ops; kind = img.kind })
    with e ->
      Queue.add slot t.free;
      raise e
  in
  let tn = { id; slot; img; peer_share = None; spent_ns = 0; clean = false } in
  Queue.add tn t.live;
  let base = Hw.Addr.Range.base (slot_range slot) in
  Rig.guest (fun () -> Tyche.Monitor.store_string m ~core:0 base img.header);
  let mem = Rig.range ~base ~pages:img.pages in
  let piece =
    if img.pages = slot_pages then t.slot_cap.(slot)
    else call_cap t (Tyche.Api.Carve { cap = t.slot_cap.(slot); subrange = mem })
  in
  ignore
    (call_cap t
       (Tyche.Api.Grant
          { cap = piece; to_ = id; rights = Cap.Rights.full;
            cleanup = Cap.Revocation.Zero_and_flush }));
  ignore
    (call_cap t
       (Tyche.Api.Share
          { cap = Rig.core_cap m 0; to_ = id; rights = Cap.Rights.exclusive_use;
            cleanup = Cap.Revocation.Keep; subrange = None }));
  let share_chan to_ =
    call_cap t
      (Tyche.Api.Share
         { cap = t.chan_cap.(slot); to_; rights = Cap.Rights.rw; cleanup = Cap.Revocation.Keep;
           subrange = None })
  in
  ignore (share_chan id);
  tn.peer_share <- Some (share_chan t.peer);
  call_unit t (Tyche.Api.Set_entry_point { domain = id; entry = base });
  call_unit t (Tyche.Api.Mark_measured { domain = id; range = mem });
  call_unit t (Tyche.Api.Seal { domain = id });
  tn.spent_ns <- Clock.now_ns () - t0;
  tn.clean <- not !Trace.recording;
  tn

let run_tenant t tn =
  let m = t.node.Rig.monitor in
  let base = Hw.Addr.Range.base (slot_range tn.slot) in
  timed_on tn (fun () ->
      for j = 1 to k_pairs do
        let addr = base + (Random.State.int t.rng (tn.img.pages * Rig.page / 8) * 8) in
        Rig.call_ret m ~core:0 ~caller:Rig.os ~target:tn.id (fun () ->
            Rig.guest (fun () -> Tyche.Monitor.store m ~core:0 addr j))
      done)

let policy t tn =
  [ Verifier.Policy.Sealed;
    Verifier.Policy.Kind_is tn.img.kind;
    Verifier.Policy.Measurement_is tn.img.measurement;
    Verifier.Policy.Region_exclusive
      (Rig.range ~base:(Hw.Addr.Range.base (slot_range tn.slot)) ~pages:tn.img.pages);
    Verifier.Policy.Region_shared_only_with (chan_range tn.slot, [ Rig.os; t.peer ]) ]

(* One batch signature over [tenants]; each tenant pays an equal share
   of the call, and its report goes to the verifier. *)
let attest t tenants =
  match tenants with
  | [] -> ()
  | _ ->
    let m = t.node.Rig.monitor in
    t.keys_used <- t.keys_used + 1;
    let t0 = Clock.now_ns () in
    let atts =
      Rig.monitor_op "api.attest_batch" (fun () ->
          Tyche.Monitor.attest_batch m ~caller:Rig.os
            ~domains:(List.map (fun tn -> tn.id) tenants) ~nonce)
    in
    let share = (Clock.now_ns () - t0) / List.length tenants in
    List.iter2
      (fun tn att ->
        Rig.submit ~root:t.root ~nonce ~policy:(policy t tn) att;
        Rig.sample Rig.attest_us (float_of_int share /. 1e3);
        if !Trace.recording then tn.clean <- false;
        tn.spent_ns <- tn.spent_ns + share)
      tenants atts

(* destroy -> revoke the peer's channel share -> coalesce the slot *)
let retire t tn =
  let m = t.node.Rig.monitor in
  timed_on tn (fun () ->
      call_unit t (Tyche.Api.Destroy { domain = tn.id });
      Option.iter (fun cap -> Rig.revoke m ~caller:Rig.os ~cap) tn.peer_share;
      List.iter
        (fun c -> Rig.revoke m ~caller:Rig.os ~cap:c)
        (Cap.Captree.children (Tyche.Monitor.tree m) t.slot_cap.(tn.slot)));
  Queue.add tn.slot t.free;
  if tn.clean then Rig.sample Rig.lifecycle_us (float_of_int tn.spent_ns /. 1e3)

let step t =
  while Queue.length t.live + wave > slots do
    retire t (Queue.take t.live)
  done;
  let admitted = List.init wave (fun _ -> admit t) in
  List.iter (run_tenant t) admitted;
  attest t admitted;
  if Rig.draw t.reattest = 0 then begin
    attest t admitted;
    1
  end
  else 0

let check _t = ()
