(* revoke-cascade: cascading revocation on x86, persistence off.

   A background tree of [bg_pages] x [bg_fanout] live single-page shares held by
   [bg_domains] standing domains stays in place for the whole run. Each
   episode of the seeded stream:
   - draws a card from a seeded deck of [fanouts] x 2: a fanout f from
     [fanouts] log-uniform steps over 1..[max_fanout], a shape — every
     victim in one domain, or victims spread over up to [spread]
     domains — and with them a clean-up policy from Keep / Zero /
     Flush_cache / Zero_and_flush, each policy on about a quarter of the
     cards;
   - shares an f-page run from domain 0 to a standing relay domain (the
     subtree root), and the relay shares each page on to the victim
     domains under the drawn policy;
   - seals the victims and runs each once (call, loads over its pages,
     ret), so the cache and TLB hold their lines and taint;
   - revokes the root — the timed cascade over f + 1 capabilities —
     and destroys the victim domains. *)

let arch = Hw.Cpu.X86_64
let cores = 2
let mem_size = 16 * 1024 * 1024
let signer_height = 6
let bg_domains = 16
let bg_pages = 2048
let bg_fanout = 4
let bg_base = 0x200000
let work_base = 0xc00000
let max_fanout = 1000
let spread = 64

(* Ten log-uniform steps per decade of 1..1000, so E18's fanouts 10,
   100 and 1000 are among them. *)
let fanouts = 31

(* One pass over the deck. *)
let slice_steps = 2 * fanouts

(* heap_peak_mb is read once this many ops have been attempted. *)
let heap_ops = 200_000

let loads_per_page = 2

let policies =
  [| Cap.Revocation.Keep; Cap.Revocation.Zero; Cap.Revocation.Flush_cache;
     Cap.Revocation.Zero_and_flush |]

type t = {
  node : Rig.node;
  relay : Tyche.Domain.id;
  work_cap : Cap.Captree.cap_id;
  cards : Rig.deck;
}

let network _ = None
let monitors t = [ t.node.Rig.monitor ]
let machines t = [ t.node.Rig.machine ]
let exhausted _ = false

let create_domain m name =
  Rig.call_domain m ~caller:Rig.os ~core:0
    (Tyche.Api.Create_domain { name; kind = Tyche.Domain.Sandbox })

let setup ~seed ~trace ~(split : Rig.setup_split) =
  let node =
    Rig.boot_node ~split ~trace ~arch ~cores ~mem_size ~seed ~signer_height ~store:None ()
  in
  let t0 = Clock.now_ns () in
  let m = node.Rig.monitor in
  let bg = Array.init bg_domains (fun i -> create_domain m (Printf.sprintf "bg-%d" i)) in
  let bg_range = Rig.range ~base:bg_base ~pages:bg_pages in
  let bg_cap = Rig.cap_over m ~owner:Rig.os bg_range in
  for p = 0 to bg_pages - 1 do
    for j = 0 to bg_fanout - 1 do
      ignore
        (Rig.call_cap m ~caller:Rig.os ~core:0
           (Tyche.Api.Share
              { cap = bg_cap; to_ = bg.(((p * bg_fanout) + j) mod bg_domains);
                rights = Cap.Rights.read_only; cleanup = Cap.Revocation.Keep;
                subrange = Some (Rig.range ~base:(bg_base + (p * Rig.page)) ~pages:1) }))
    done
  done;
  let work = Rig.range ~base:work_base ~pages:max_fanout in
  let work_cap =
    Rig.call_cap m ~caller:Rig.os ~core:0
      (Tyche.Api.Carve { cap = Rig.cap_over m ~owner:Rig.os work; subrange = work })
  in
  let relay = create_domain m "relay" in
  split.Rig.populate_s <- split.Rig.populate_s +. Clock.seconds_since t0;
  { node; relay; work_cap; cards = Rig.deck (Random.State.make [| seed; 0x4e70ce |]) (2 * fanouts) }

let step t =
  let m = t.node.Rig.monitor in
  let t0 = Clock.now_ns () in
  let card = Rig.draw t.cards in
  let q = card / 2 and one_domain = card land 1 = 0 in
  let fanout =
    let x = float_of_int q /. float_of_int (fanouts - 1) in
    int_of_float (Float.round (float_of_int max_fanout ** x))
  in
  let cleanup = policies.((q + card) mod Array.length policies) in
  let nv = if one_domain then 1 else min fanout spread in
  let victims = Array.init nv (fun i -> create_domain m (Printf.sprintf "victim-%d" i)) in
  let root =
    Rig.call_cap m ~caller:Rig.os ~core:0
      (Tyche.Api.Share
         { cap = t.work_cap; to_ = t.relay; rights = Cap.Rights.rw; cleanup;
           subrange = Some (Rig.range ~base:work_base ~pages:fanout) })
  in
  for k = 0 to fanout - 1 do
    ignore
      (Rig.call_cap m ~caller:t.relay ~core:0
         (Tyche.Api.Share
            { cap = root; to_ = victims.(k mod nv); rights = Cap.Rights.rw; cleanup;
              subrange = Some (Rig.range ~base:(work_base + (k * Rig.page)) ~pages:1) }))
  done;
  let core1 = Rig.core_cap m 1 in
  Array.iteri
    (fun i v ->
      ignore
        (Rig.call_cap m ~caller:Rig.os ~core:0
           (Tyche.Api.Share
              { cap = core1; to_ = v; rights = Cap.Rights.exclusive_use;
                cleanup = Cap.Revocation.Keep; subrange = None }));
      Rig.call_unit m ~caller:Rig.os ~core:0
        (Tyche.Api.Set_entry_point { domain = v; entry = work_base + (i * Rig.page) });
      Rig.call_unit m ~caller:Rig.os ~core:0 (Tyche.Api.Seal { domain = v }))
    victims;
  Array.iteri
    (fun i v ->
      Rig.call_ret m ~core:1 ~caller:Rig.os ~target:v (fun () ->
          let k = ref i in
          while !k < fanout do
            for l = 0 to loads_per_page - 1 do
              ignore
                (Rig.guest (fun () ->
                     Tyche.Monitor.load m ~core:1
                       (work_base + (!k * Rig.page) + (l * Rig.page / loads_per_page))))
            done;
            k := !k + nv
          done))
    victims;
  Rig.revoke m ~caller:Rig.os ~cap:root;
  Array.iter
    (fun v -> Rig.call_unit m ~caller:Rig.os ~core:0 (Tyche.Api.Destroy { domain = v }))
    victims;
  Rig.sample Rig.lifecycle_us (float_of_int (Clock.now_ns () - t0) /. 1e3);
  card

let check _ = ()
