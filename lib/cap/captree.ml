type cap_id = int
type domain_id = int

type effect =
  | Attach of { domain : domain_id; resource : Resource.t; perm : Hw.Perm.t }
  | Detach of { domain : domain_id; resource : Resource.t; cleanup : Revocation.t }

type error =
  | No_such_capability of cap_id
  | Capability_inactive of cap_id
  | Rights_exceeded
  | Sharing_denied
  | Grant_denied
  | Bad_subrange
  | Overlapping_root
  | Frozen of cap_id

let error_to_string = function
  | No_such_capability id -> Printf.sprintf "no such capability: %d" id
  | Capability_inactive id -> Printf.sprintf "capability %d is inactive" id
  | Rights_exceeded -> "child rights exceed parent rights"
  | Sharing_denied -> "capability is not shareable"
  | Grant_denied -> "capability is not grantable"
  | Bad_subrange -> "invalid subrange or split point"
  | Overlapping_root -> "new root overlaps an existing root"
  | Frozen id ->
    Printf.sprintf "capability %d is frozen (remote revocation pending)" id

let pp_error fmt e = Format.pp_print_string fmt (error_to_string e)

type origin = Orig_root | Orig_shared | Orig_granted | Orig_split

type state = Active | Inactive_granted | Inactive_split

let origin_to_int = function
  | Orig_root -> 0
  | Orig_shared -> 1
  | Orig_granted -> 2
  | Orig_split -> 3

let origin_of_int = function
  | 0 -> Some Orig_root
  | 1 -> Some Orig_shared
  | 2 -> Some Orig_granted
  | 3 -> Some Orig_split
  | _ -> None

let state_to_int = function Active -> 0 | Inactive_granted -> 1 | Inactive_split -> 2

let state_of_int = function
  | 0 -> Some Active
  | 1 -> Some Inactive_granted
  | 2 -> Some Inactive_split
  | _ -> None

module IntSet = Set.Make (Int)

type node = {
  id : cap_id;
  resource : Resource.t;
  node_rights : Rights.t;
  owner : domain_id;
  node_cleanup : Revocation.t;
  parent : cap_id option;
  origin : origin;
  (* Child ids. Fresh ids are monotonic, so the set's descending order
     is exactly the old "most-recent first" list order — but unlinking
     one child on revoke is O(log n) instead of the O(n) list filter
     that made share+revoke superlinear in the parent's fan-out. *)
  mutable children : IntSet.t;
  mutable state : state;
}

(* Most-recent first, matching the order the old list representation
   maintained (ids descend because fresh ids ascend). *)
let children_list (n : node) = IntSet.fold (fun c acc -> c :: acc) n.children []

module IntMap = Map.Make (Int)

(* A maximal run of physical addresses over which the set of active
   memory capabilities is constant. [counts] maps each holder to the
   number of its active caps covering the run, sorted by domain id and
   never containing zero entries. The segment's base address is its key
   in [t.segments]. *)
type segment = { seg_limit : int; counts : (domain_id * int) list }

type t = {
  nodes : (cap_id, node) Hashtbl.t;
  mutable roots : cap_id list; (* unordered; ids materialize creation order *)
  mutable next_id : int;
  (* Incremental indexes: redundant views over [nodes], patched on every
     mutation instead of being recomputed by a full table scan. Each has
     a [_reference] full-scan twin below; [check_index_consistency]
     cross-checks them and the property tests run it after every step.
       [by_domain]     domain -> ids of every cap it owns (any state)
       [scalar_active] active Cpu_core/Device caps, keyed by resource
       [scalar_roots]  root caps for Cpu_core/Device resources
       [mem_roots]     memory roots: base -> (limit, id); disjoint
       [segments]      delta-maintained Fig. 4 region map (see [segment])
     [generation] increases monotonically on every mutation; callers
     (Monitor.attest) use it to memoize derived views between
     mutations. *)
  by_domain : (domain_id, (cap_id, unit) Hashtbl.t) Hashtbl.t;
  scalar_active : (Resource.t, (cap_id, unit) Hashtbl.t) Hashtbl.t;
  scalar_roots : (Resource.t, cap_id) Hashtbl.t;
  mutable mem_roots : (int * cap_id) IntMap.t;
  mutable segments : segment IntMap.t;
  mutable generation : int;
  (* [seg_gens] maps bucket (id / seg_span) -> generation of its last
     mutation, so incremental checkpoints serialize only dirty buckets.
     Rollback does not unmark (over-marking is safe: a clean bucket that
     was marked re-serializes to the same content-addressed segment). *)
  seg_gens : (int, int) Hashtbl.t;
  mutable region_cache : (Hw.Addr.Range.t * domain_id list) list option;
  (* Undo journal for crash consistency. While [journaling], every
     mutation primitive prepends the exact inverse of its own effect
     (node table, indexes, parent/roots links, id counter); rollback
     replays the closures newest-first, so the composite inverse runs
     in the only order that is always correct: (a b)⁻¹ = b⁻¹ a⁻¹.
     [generation] is deliberately NOT restored — a rolled-back tree is
     byte-identical in content but must still invalidate memoized
     derived views. *)
  mutable journal : (unit -> unit) list;
  mutable journaling : bool;
  (* Caps frozen by a pending cross-machine revocation (Fleet): every
     mutation through the frozen cap or its subtree is refused until
     [thaw]. Small (proportional to in-flight remote revokes), so the
     guards iterate/walk it directly; the zero-size fast path keeps
     machine-local workloads paying one [Hashtbl.length] per op. Not
     serialized in snapshots — the fleet journal is the durable record
     of pending revocations and re-freezes on recovery. *)
  frozen : (cap_id, unit) Hashtbl.t;
}

let create () =
  { nodes = Hashtbl.create 64;
    roots = [];
    next_id = 1;
    by_domain = Hashtbl.create 16;
    scalar_active = Hashtbl.create 16;
    scalar_roots = Hashtbl.create 16;
    mem_roots = IntMap.empty;
    segments = IntMap.empty;
    generation = 0;
    seg_gens = Hashtbl.create 16;
    region_cache = None;
    journal = [];
    journaling = false;
    frozen = Hashtbl.create 4 }

let generation t = t.generation
let segment_count t = IntMap.cardinal t.segments

let touch t =
  t.generation <- t.generation + 1;
  t.region_cache <- None

(* Bucket width for incremental snapshots: segment [b] covers ids in
   [b*span, (b+1)*span). 64 nodes a segment keeps segments big enough to
   amortize framing and small enough that one mutation re-serializes a
   sliver of a 10k-cap tree. *)
let seg_span = 64

let mark_dirty t id = Hashtbl.replace t.seg_gens (id / seg_span) t.generation

let bucket_generation t bucket =
  match Hashtbl.find_opt t.seg_gens bucket with Some g -> g | None -> 0

(* --- undo journal --------------------------------------------------- *)

(* Call sites guard with [if t.journaling then record t (fun () -> ...)]
   rather than checking inside [record]: OCaml allocates the closure at
   the call site either way, and the fault-free fast path must not. *)
let record t undo = t.journal <- undo :: t.journal

(* Hoisted metric handles: registry entries survive [Obs.reset] (it
   zeroes in place), so the lookup happens once per process. *)
let txn_commit_c = Obs.Metrics.counter "captree.txn_commit"
let txn_rollback_c = Obs.Metrics.counter "captree.txn_rollback"

let txn_begin t =
  if t.journaling then invalid_arg "Captree.txn_begin: transaction already open";
  t.journal <- [];
  t.journaling <- true

let txn_commit t =
  t.journaling <- false;
  t.journal <- [];
  Obs.Metrics.incr txn_commit_c

let txn_rollback t =
  let undos = t.journal in
  t.journaling <- false;
  t.journal <- [];
  List.iter (fun undo -> undo ()) undos;
  (* Undo closures patch indexes directly; make sure memoized views
     (region cache, attestation bodies) see a fresh generation. *)
  touch t;
  Obs.Metrics.incr txn_rollback_c

let in_txn t = t.journaling

let ( let* ) = Result.bind

let find t id =
  match Hashtbl.find_opt t.nodes id with
  | Some n -> Ok n
  | None -> Error (No_such_capability id)

let find_active t id =
  let* n = find t id in
  if n.state = Active then Ok n else Error (Capability_inactive id)

let fresh_id t =
  let id = t.next_id in
  if t.journaling then record t (fun () -> t.next_id <- id);
  t.next_id <- id + 1;
  id

(* --- frozen caps (pending cross-machine revocation) ----------------- *)

let freeze t id =
  let* _ = find t id in
  if not (Hashtbl.mem t.frozen id) then begin
    touch t;
    if t.journaling then record t (fun () -> Hashtbl.remove t.frozen id);
    Hashtbl.replace t.frozen id ()
  end;
  Ok ()

let thaw t id =
  if Hashtbl.mem t.frozen id then begin
    touch t;
    if t.journaling then record t (fun () -> Hashtbl.replace t.frozen id ());
    Hashtbl.remove t.frozen id
  end

let is_frozen t id = Hashtbl.mem t.frozen id

let frozen_caps t =
  Hashtbl.fold (fun id () acc -> id :: acc) t.frozen [] |> List.sort Int.compare

(* Walking up from [id] beats iterating the frozen set here: mutation
   guards run on every share/grant/split, and the walk is bounded by
   tree depth with an O(1) bail-out when nothing is frozen. *)
let frozen_ancestor t id =
  if Hashtbl.length t.frozen = 0 then None
  else begin
    let rec walk current =
      if Hashtbl.mem t.frozen current then Some current
      else
        match Hashtbl.find_opt t.nodes current with
        | Some { parent = Some p; _ } -> walk p
        | _ -> None
    in
    walk id
  end

let check_not_frozen t id =
  match frozen_ancestor t id with Some f -> Error (Frozen f) | None -> Ok ()

(* --- segment index (delta-maintained region map) ------------------- *)

let rec counts_incr counts d =
  match counts with
  | [] -> [ (d, 1) ]
  | (d', c) :: rest ->
    if d' = d then (d', c + 1) :: rest
    else if d' < d then (d', c) :: counts_incr rest d
    else (d, 1) :: counts

let rec counts_decr counts d =
  match counts with
  | [] -> []
  | (d', c) :: rest ->
    if d' = d then if c <= 1 then rest else (d', c - 1) :: rest
    else (d', c) :: counts_decr rest d

let counts_holders counts = List.map fst counts

(* Split the segment containing [pos] (if any) so [pos] becomes a
   segment boundary. *)
let seg_split_at segs pos =
  match IntMap.find_last_opt (fun b -> b < pos) segs with
  | Some (b, s) when s.seg_limit > pos ->
    segs
    |> IntMap.add b { s with seg_limit = pos }
    |> IntMap.add pos { seg_limit = s.seg_limit; counts = s.counts }
  | _ -> segs

(* Remove boundaries inside [lo, hi] that no longer separate distinct
   count tables (e.g. after a revoke deleted the cap that created
   them), so fragmentation stays proportional to live cap bounds. *)
let seg_coalesce segs ~lo ~hi =
  let start =
    match IntMap.find_last_opt (fun b -> b <= lo) segs with
    | Some (b, _) -> b
    | None -> lo
  in
  let rec go segs b =
    if b > hi then segs
    else
      match IntMap.find_opt b segs with
      | None -> (
        match IntMap.find_first_opt (fun k -> k > b) segs with
        | Some (nb, _) -> go segs nb
        | None -> segs)
      | Some s -> (
        match IntMap.find_first_opt (fun k -> k > b) segs with
        | Some (nb, ns) when s.seg_limit = nb && s.counts = ns.counts ->
          go (IntMap.add b { ns with counts = s.counts } (IntMap.remove nb segs)) b
        | Some (nb, _) -> go segs nb
        | None -> segs)
  in
  go segs start

(* Add one active cap [base, limit) held by [owner]: split at the two
   bounds, bump counts in covered segments, materialize segments for
   uncovered gaps. O(log segments + segments overlapped). *)
let seg_insert segs ~base ~limit ~owner =
  let segs = seg_split_at (seg_split_at segs base) limit in
  let rec collect cursor seq acc =
    if cursor >= limit then acc
    else
      match seq () with
      | Seq.Cons ((b, s), rest) when b < limit ->
        let acc =
          if b > cursor then (cursor, { seg_limit = b; counts = [ (owner, 1) ] }) :: acc
          else acc
        in
        collect s.seg_limit rest ((b, { s with counts = counts_incr s.counts owner }) :: acc)
      | _ -> (cursor, { seg_limit = limit; counts = [ (owner, 1) ] }) :: acc
  in
  let updates = collect base (IntMap.to_seq_from base segs) [] in
  let segs = List.fold_left (fun m (k, v) -> IntMap.add k v m) segs updates in
  seg_coalesce segs ~lo:base ~hi:limit

(* Inverse of [seg_insert]. The cap was active, so every point of
   [base, limit) is covered; counts that drop to zero delete the
   segment. *)
let seg_remove segs ~base ~limit ~owner =
  let segs = seg_split_at (seg_split_at segs base) limit in
  let rec collect seq acc =
    match seq () with
    | Seq.Cons ((b, s), rest) when b < limit ->
      collect rest ((b, { s with counts = counts_decr s.counts owner }) :: acc)
    | _ -> acc
  in
  let updates = collect (IntMap.to_seq_from base segs) [] in
  let segs =
    List.fold_left
      (fun m (k, s) -> if s.counts = [] then IntMap.remove k m else IntMap.add k s m)
      segs updates
  in
  seg_coalesce segs ~lo:base ~hi:limit

(* --- index maintenance --------------------------------------------- *)

let domain_index_add t domain id =
  let tbl =
    match Hashtbl.find_opt t.by_domain domain with
    | Some tbl -> tbl
    | None ->
      let tbl = Hashtbl.create 8 in
      Hashtbl.replace t.by_domain domain tbl;
      tbl
  in
  Hashtbl.replace tbl id ()

let domain_index_remove t domain id =
  match Hashtbl.find_opt t.by_domain domain with
  | None -> ()
  | Some tbl ->
    Hashtbl.remove tbl id;
    if Hashtbl.length tbl = 0 then Hashtbl.remove t.by_domain domain

(* Called when [n] becomes active (creation, or reactivation after its
   children were revoked). *)
let index_activate t (n : node) =
  match n.resource with
  | Resource.Memory r ->
    t.segments <-
      seg_insert t.segments ~base:(Hw.Addr.Range.base r) ~limit:(Hw.Addr.Range.limit r)
        ~owner:n.owner
  | (Resource.Cpu_core _ | Resource.Device _) as res ->
    let tbl =
      match Hashtbl.find_opt t.scalar_active res with
      | Some tbl -> tbl
      | None ->
        let tbl = Hashtbl.create 4 in
        Hashtbl.replace t.scalar_active res tbl;
        tbl
    in
    Hashtbl.replace tbl n.id ()

(* Called when [n] stops being active (grant, split, removal). *)
let index_deactivate t (n : node) =
  match n.resource with
  | Resource.Memory r ->
    t.segments <-
      seg_remove t.segments ~base:(Hw.Addr.Range.base r) ~limit:(Hw.Addr.Range.limit r)
        ~owner:n.owner
  | (Resource.Cpu_core _ | Resource.Device _) as res -> (
    match Hashtbl.find_opt t.scalar_active res with
    | None -> ()
    | Some tbl ->
      Hashtbl.remove tbl n.id;
      if Hashtbl.length tbl = 0 then Hashtbl.remove t.scalar_active res)

let root_index_add t (n : node) =
  match n.resource with
  | Resource.Memory r ->
    t.mem_roots <- IntMap.add (Hw.Addr.Range.base r) (Hw.Addr.Range.limit r, n.id) t.mem_roots
  | (Resource.Cpu_core _ | Resource.Device _) as res -> Hashtbl.replace t.scalar_roots res n.id

let root_index_remove t (n : node) =
  match n.resource with
  | Resource.Memory r -> t.mem_roots <- IntMap.remove (Hw.Addr.Range.base r) t.mem_roots
  | (Resource.Cpu_core _ | Resource.Device _) as res -> Hashtbl.remove t.scalar_roots res

let add_node t node =
  touch t;
  mark_dirty t node.id;
  (match node.parent with Some pid -> mark_dirty t pid | None -> ());
  Hashtbl.replace t.nodes node.id node;
  domain_index_add t node.owner node.id;
  index_activate t node;
  if t.journaling then
    record t (fun () ->
      Hashtbl.remove t.nodes node.id;
      domain_index_remove t node.owner node.id;
      index_deactivate t node);
  (match node.parent with
  | Some pid ->
    (* O(log n) insert. Nothing depends on child order beyond the
       descending-id order the set maintains (ids give creation order
       where needed). *)
    let p = Hashtbl.find t.nodes pid in
    p.children <- IntSet.add node.id p.children;
    if t.journaling then
      record t (fun () -> p.children <- IntSet.remove node.id p.children)
  | None ->
    (* Prepend here too: the roots list is an unordered set; creation
       order, where a caller needs it, is materialized from ids. *)
    t.roots <- node.id :: t.roots;
    root_index_add t node;
    if t.journaling then
      record t (fun () ->
        t.roots <- List.filter (fun r -> r <> node.id) t.roots;
        root_index_remove t node))

let root t ~owner resource rights =
  let overlapping =
    match resource with
    | Resource.Memory r -> (
      (* Memory roots are pairwise disjoint, so the root with the
         greatest base below our limit is the only overlap candidate. *)
      match IntMap.find_last_opt (fun b -> b < Hw.Addr.Range.limit r) t.mem_roots with
      | Some (_, (root_limit, _)) -> root_limit > Hw.Addr.Range.base r
      | None -> false)
    | Resource.Cpu_core _ | Resource.Device _ -> Hashtbl.mem t.scalar_roots resource
  in
  if overlapping then Error Overlapping_root
  else begin
    let id = fresh_id t in
    add_node t
      { id; resource; node_rights = rights; owner; node_cleanup = Revocation.Keep;
        parent = None; origin = Orig_root; children = IntSet.empty; state = Active };
    Ok (id, [ Attach { domain = owner; resource; perm = rights.Rights.perm } ])
  end

let narrowed_resource node subrange =
  match node.resource, subrange with
  | _, None -> Ok node.resource
  | Resource.Memory r, Some sub ->
    if Hw.Addr.Range.includes ~outer:r ~inner:sub then Ok (Resource.Memory sub)
    else Error Bad_subrange
  | (Resource.Cpu_core _ | Resource.Device _), Some _ -> Error Bad_subrange

let share t id ~to_ ~rights ~cleanup ?subrange () =
  let* n = find_active t id in
  let* () = check_not_frozen t id in
  if not n.node_rights.Rights.can_share then Error Sharing_denied
  else if not (Rights.attenuates ~parent:n.node_rights ~child:rights) then
    Error Rights_exceeded
  else
    let* resource = narrowed_resource n subrange in
    let cid = fresh_id t in
    add_node t
      { id = cid; resource; node_rights = rights; owner = to_; node_cleanup = cleanup;
        parent = Some id; origin = Orig_shared; children = IntSet.empty; state = Active };
    Ok (cid, [ Attach { domain = to_; resource; perm = rights.Rights.perm } ])

let grant t id ~to_ ~rights ~cleanup =
  let* n = find_active t id in
  let* () = check_not_frozen t id in
  if not n.node_rights.Rights.can_grant then Error Grant_denied
  else if not (Rights.attenuates ~parent:n.node_rights ~child:rights) then
    Error Rights_exceeded
  else begin
    let cid = fresh_id t in
    touch t;
    mark_dirty t id;
    if t.journaling then
      record t (fun () ->
        n.state <- Active;
        index_activate t n);
    n.state <- Inactive_granted;
    index_deactivate t n;
    add_node t
      { id = cid; resource = n.resource; node_rights = rights; owner = to_;
        node_cleanup = cleanup; parent = Some id; origin = Orig_granted;
        children = IntSet.empty; state = Active };
    Ok
      ( cid,
        [ Detach { domain = n.owner; resource = n.resource; cleanup = Revocation.Keep };
          Attach { domain = to_; resource = n.resource; perm = rights.Rights.perm } ] )
  end

let split t id ~at =
  let* n = find_active t id in
  let* () = check_not_frozen t id in
  match n.resource with
  | Resource.Cpu_core _ | Resource.Device _ -> Error Bad_subrange
  | Resource.Memory r -> (
    match Hw.Addr.Range.split_at r at with
    | None -> Error Bad_subrange
    | Some (left, right) ->
      touch t;
      mark_dirty t id;
      if t.journaling then
        record t (fun () ->
          n.state <- Active;
          index_activate t n);
      n.state <- Inactive_split;
      index_deactivate t n;
      let make range =
        let cid = fresh_id t in
        add_node t
          { id = cid; resource = Resource.Memory range; node_rights = n.node_rights;
            owner = n.owner; node_cleanup = n.node_cleanup; parent = Some id;
            origin = Orig_split; children = IntSet.empty; state = Active };
        cid
      in
      let l = make left in
      let rg = make right in
      (* Same owner, same permissions: no hardware change required. *)
      Ok (l, rg, []))

let carve t id ~subrange =
  let* n = find_active t id in
  let* () = check_not_frozen t id in
  match n.resource with
  | Resource.Cpu_core _ | Resource.Device _ -> Error Bad_subrange
  | Resource.Memory r ->
    if not (Hw.Addr.Range.includes ~outer:r ~inner:subrange) then Error Bad_subrange
    else if Hw.Addr.Range.equal r subrange then Ok (id, [])
    else begin
      (* Cut off the prefix (if any), then the suffix (if any). *)
      let sub_base = Hw.Addr.Range.base subrange in
      let sub_limit = Hw.Addr.Range.limit subrange in
      let* mid_id, effects1 =
        if sub_base > Hw.Addr.Range.base r then
          let* _, right, eff = split t id ~at:sub_base in
          Ok (right, eff)
        else Ok (id, [])
      in
      let* mid = find t mid_id in
      let mid_range =
        match mid.resource with Resource.Memory r -> r | _ -> assert false
      in
      if sub_limit < Hw.Addr.Range.limit mid_range then
        let* left, _, effects2 = split t mid_id ~at:sub_limit in
        Ok (left, effects1 @ effects2)
      else Ok (mid_id, effects1)
    end

(* Child-before-parent collection of a subtree, so Detach effects never
   leave a window where a parent mapping has been restored while
   children still hold the resource. Iterative (explicit stack): chains
   of shares can be deep enough to overflow the call stack. *)
let subtree_nodes_child_first t id =
  let out = ref [] in
  let stack = ref [ id ] in
  let continue_ = ref true in
  while !continue_ do
    match !stack with
    | [] -> continue_ := false
    | x :: rest -> (
      stack := rest;
      match Hashtbl.find_opt t.nodes x with
      | None -> ()
      | Some n ->
        out := n :: !out;
        stack := IntSet.elements n.children @ !stack)
  done;
  (* [out] is the reversed visit order of a preorder walk, so every
     child precedes its parent. *)
  !out

let remove_and_collect t node =
  touch t;
  let victims = subtree_nodes_child_first t node.id in
  let effects =
    List.filter_map
      (fun (v : node) ->
        mark_dirty t v.id;
        Hashtbl.remove t.nodes v.id;
        domain_index_remove t v.owner v.id;
        (match v.parent with None -> root_index_remove t v | Some _ -> ());
        let was_active = v.state = Active in
        if t.journaling then
          (* Interior victims keep their [children] links untouched, so
             re-adding every victim node restores the whole subtree. *)
          record t (fun () ->
            Hashtbl.replace t.nodes v.id v;
            domain_index_add t v.owner v.id;
            (match v.parent with None -> root_index_add t v | Some _ -> ());
            if was_active then index_activate t v);
        if was_active then begin
          index_deactivate t v;
          Some (Detach { domain = v.owner; resource = v.resource; cleanup = v.node_cleanup })
        end
        else None)
      victims
  in
  (* Unlink from the parent, possibly reactivating it. *)
  match node.parent with
  | None ->
    let old_roots = t.roots in
    if t.journaling then record t (fun () -> t.roots <- old_roots);
    t.roots <- List.filter (fun r -> r <> node.id) t.roots;
    effects
  | Some pid -> (
    match Hashtbl.find_opt t.nodes pid with
    | None -> effects
    | Some p ->
      mark_dirty t pid;
      let old_children = p.children in
      if t.journaling then record t (fun () -> p.children <- old_children);
      p.children <- IntSet.remove node.id p.children;
      if IntSet.is_empty p.children && p.state <> Active then begin
        let old_state = p.state in
        if t.journaling then
          record t (fun () ->
            index_deactivate t p;
            p.state <- old_state);
        p.state <- Active;
        index_activate t p;
        effects
        @ [ Attach
              { domain = p.owner; resource = p.resource; perm = p.node_rights.Rights.perm } ]
      end
      else effects)

(* A pending remote revocation anywhere inside the target subtree must
   block local revocation: destroying the proxy's cap would erase the
   only local record that a remote machine still holds the resource.
   The frozen set is tiny, so walking up from each frozen id is cheap
   (and free when nothing is frozen). *)
let frozen_in_subtree t id =
  if Hashtbl.length t.frozen = 0 then None
  else
    Hashtbl.fold
      (fun f () acc ->
        match acc with
        | Some _ -> acc
        | None ->
          let rec up current =
            current = id
            ||
            match Hashtbl.find_opt t.nodes current with
            | Some { parent = Some p; _ } -> up p
            | _ -> false
          in
          if up f then Some f else None)
      t.frozen None

let revoke t id =
  let* n = find t id in
  match frozen_in_subtree t id with
  | Some f -> Error (Frozen f)
  | None -> Ok (remove_and_collect t n)

let revoke_children t id =
  let* n = find t id in
  match frozen_in_subtree t id with
  | Some f -> Error (Frozen f)
  | None ->
  let effects =
    List.concat_map
      (fun cid ->
        match Hashtbl.find_opt t.nodes cid with
        | Some c -> remove_and_collect t c
        | None -> [])
      (children_list n)
  in
  Ok effects

(* Inspection *)

let owner t id = Option.map (fun n -> n.owner) (Hashtbl.find_opt t.nodes id)
let resource t id = Option.map (fun n -> n.resource) (Hashtbl.find_opt t.nodes id)
let rights t id = Option.map (fun n -> n.node_rights) (Hashtbl.find_opt t.nodes id)
let cleanup t id = Option.map (fun n -> n.node_cleanup) (Hashtbl.find_opt t.nodes id)
let origin t id = Option.map (fun n -> n.origin) (Hashtbl.find_opt t.nodes id)

let is_active t id =
  match Hashtbl.find_opt t.nodes id with Some n -> n.state = Active | None -> false

let parent t id = Option.bind (Hashtbl.find_opt t.nodes id) (fun n -> n.parent)

let children t id =
  match Hashtbl.find_opt t.nodes id with Some n -> children_list n | None -> []

let caps_of_domain t domain =
  match Hashtbl.find_opt t.by_domain domain with
  | None -> []
  | Some tbl ->
    Hashtbl.fold
      (fun id () acc ->
        match Hashtbl.find_opt t.nodes id with
        | Some n when n.state = Active -> id :: acc
        | _ -> acc)
      tbl []
    |> List.sort Int.compare

let all_caps_of_domain t domain =
  match Hashtbl.find_opt t.by_domain domain with
  | None -> []
  | Some tbl -> Hashtbl.fold (fun id () acc -> id :: acc) tbl [] |> List.sort Int.compare

(* Full-scan twins of the indexed queries, kept as the executable
   specification: tests and [check_index_consistency] compare every
   fast path against these. *)

let caps_of_domain_reference t domain =
  Hashtbl.fold
    (fun _ n acc -> if n.owner = domain && n.state = Active then n :: acc else acc)
    t.nodes []
  |> List.sort (fun (a : node) b -> Int.compare a.id b.id)
  |> List.map (fun n -> n.id)

let all_caps_of_domain_reference t domain =
  Hashtbl.fold (fun _ n acc -> if n.owner = domain then n :: acc else acc) t.nodes []
  |> List.sort (fun (a : node) b -> Int.compare a.id b.id)
  |> List.map (fun n -> n.id)

let is_ancestor t ~ancestor id =
  let rec walk current =
    match Hashtbl.find_opt t.nodes current with
    | None -> false
    | Some n -> (
      match n.parent with
      | Some p -> p = ancestor || walk p
      | None -> false)
  in
  walk id

let node_count t = Hashtbl.length t.nodes

(* Reference counting *)

let active_nodes_overlapping_reference t resource =
  Hashtbl.fold
    (fun _ n acc ->
      if n.state = Active && Resource.overlaps n.resource resource then n :: acc else acc)
    t.nodes []

(* Indexed overlap query: find the memory roots that overlap, then
   descend with pruning — a node's range includes every descendant's
   (a checked invariant), so subtrees that miss [resource] are skipped
   whole. Scalar resources come straight from the active index. *)
let active_nodes_overlapping t resource =
  match resource with
  | Resource.Memory r ->
    let base = Hw.Addr.Range.base r and limit = Hw.Addr.Range.limit r in
    let start =
      match IntMap.find_last_opt (fun b -> b <= base) t.mem_roots with
      | Some (b, (root_limit, _)) when root_limit > base -> b
      | _ -> base
    in
    let rec root_ids seq acc =
      match seq () with
      | Seq.Cons ((b, (_, id)), rest) when b < limit -> root_ids rest (id :: acc)
      | _ -> acc
    in
    let acc = ref [] in
    let stack = ref (root_ids (IntMap.to_seq_from start t.mem_roots) []) in
    let continue_ = ref true in
    while !continue_ do
      match !stack with
      | [] -> continue_ := false
      | x :: rest -> (
        stack := rest;
        match Hashtbl.find_opt t.nodes x with
        | None -> ()
        | Some n ->
          if Resource.overlaps n.resource resource then begin
            if n.state = Active then acc := n :: !acc;
            stack := IntSet.elements n.children @ !stack
          end)
    done;
    !acc
  | Resource.Cpu_core _ | Resource.Device _ -> (
    match Hashtbl.find_opt t.scalar_active resource with
    | None -> []
    | Some tbl ->
      Hashtbl.fold
        (fun id () acc ->
          match Hashtbl.find_opt t.nodes id with Some n -> n :: acc | None -> acc)
        tbl [])

(* Sweep line over active memory capabilities: O(n log n) in the number
   of caps. This is the reference implementation the delta-maintained
   [t.segments] index is checked against. *)
let region_map_reference t =
  let events = ref [] in
  Hashtbl.iter
    (fun _ n ->
      match n.state, n.resource with
      | Active, Resource.Memory r ->
        events := (Hw.Addr.Range.base r, 1, n.owner)
                  :: (Hw.Addr.Range.limit r, -1, n.owner) :: !events
      | _ -> ())
    t.nodes;
  let events =
    List.sort
      (fun (a, _, _) (b, _, _) -> Int.compare a b)
      !events
  in
  let counts : (domain_id, int) Hashtbl.t = Hashtbl.create 16 in
  let owners () =
    Hashtbl.fold (fun d c acc -> if c > 0 then d :: acc else acc) counts []
    |> List.sort_uniq Int.compare
  in
  let segments = ref [] in
  let emit lo hi =
    if hi > lo then begin
      match owners () with
      | [] -> ()
      | hs -> segments := (Hw.Addr.Range.of_bounds ~lo ~hi, hs) :: !segments
    end
  in
  let rec sweep prev = function
    | [] -> ()
    | (pos, delta, owner) :: rest ->
      if pos > prev then emit prev pos;
      Hashtbl.replace counts owner
        (Option.value ~default:0 (Hashtbl.find_opt counts owner) + delta);
      sweep pos rest
  in
  (match events with
  | [] -> ()
  | (first, _, _) :: _ -> sweep first events);
  (* Merge adjacent segments with identical holders. Tail-recursive:
     huge trees produce tens of thousands of segments. *)
  let rec merge acc = function
    | (r1, h1) :: (r2, h2) :: rest when h1 = h2 && Hw.Addr.Range.adjacent r1 r2 ->
      merge acc ((Option.get (Hw.Addr.Range.merge r1 r2), h1) :: rest)
    | x :: rest -> merge (x :: acc) rest
    | [] -> List.rev acc
  in
  merge [] (List.rev !segments)

(* Fig. 4 view from the segment index: fold the (already sorted,
   disjoint) segments, merging adjacent runs with identical holders to
   match the reference presentation. Cached between mutations. *)
let region_map t =
  match t.region_cache with
  | Some cached -> cached
  | None ->
    let merged =
      IntMap.fold
        (fun b s acc ->
          let holders = counts_holders s.counts in
          match acc with
          | (pb, plim, ph) :: rest when plim = b && ph = holders ->
            (pb, s.seg_limit, ph) :: rest
          | _ -> (b, s.seg_limit, holders) :: acc)
        t.segments []
      |> List.rev_map (fun (b, l, hs) -> (Hw.Addr.Range.of_bounds ~lo:b ~hi:l, hs))
    in
    t.region_cache <- Some merged;
    merged

let active_overlapping t resource =
  active_nodes_overlapping t resource
  |> List.map (fun (n : node) -> n.id)
  |> List.sort Int.compare

let active_overlapping_reference t resource =
  active_nodes_overlapping_reference t resource
  |> List.map (fun (n : node) -> n.id)
  |> List.sort Int.compare

let holders_reference t resource =
  active_nodes_overlapping_reference t resource
  |> List.map (fun (n : node) -> n.owner)
  |> List.sort_uniq Int.compare

let refcount_reference t resource = List.length (holders_reference t resource)

let holders t resource =
  match resource with
  | Resource.Memory r ->
    (* Segments are disjoint and sorted: locate the first overlapping
       one, then walk right while overlap continues. O(log n + k). *)
    let base = Hw.Addr.Range.base r and limit = Hw.Addr.Range.limit r in
    let start =
      match IntMap.find_last_opt (fun b -> b <= base) t.segments with
      | Some (b, s) when s.seg_limit > base -> b
      | _ -> base
    in
    let rec gather seq acc =
      match seq () with
      | Seq.Cons ((b, s), rest) when b < limit ->
        gather rest (List.rev_append (counts_holders s.counts) acc)
      | _ -> acc
    in
    gather (IntMap.to_seq_from start t.segments) [] |> List.sort_uniq Int.compare
  | Resource.Cpu_core _ | Resource.Device _ -> (
    match Hashtbl.find_opt t.scalar_active resource with
    | None -> []
    | Some tbl ->
      Hashtbl.fold
        (fun id () acc ->
          match Hashtbl.find_opt t.nodes id with Some n -> n.owner :: acc | None -> acc)
        tbl []
      |> List.sort_uniq Int.compare)

let refcount t resource = List.length (holders t resource)

let exclusively_owned t ~domain resource =
  match holders t resource with [ d ] -> d = domain | _ -> false

(* Invariants *)

let check_invariants t =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let nodes = Hashtbl.fold (fun _ n acc -> n :: acc) t.nodes [] in
  let rec first_error = function
    | [] -> Ok ()
    | n :: rest -> (
      let parent_check =
        match n.parent with
        | None ->
          if List.mem n.id t.roots then Ok ()
          else fail "node %d has no parent but is not a root" n.id
        | Some pid -> (
          match Hashtbl.find_opt t.nodes pid with
          | None -> fail "node %d has dangling parent %d" n.id pid
          | Some p ->
            if not (IntSet.mem n.id p.children) then
              fail "node %d missing from parent %d's children" n.id pid
            else if not (Rights.attenuates ~parent:p.node_rights ~child:n.node_rights)
            then fail "node %d rights exceed parent %d's" n.id pid
            else begin
              match p.resource, n.resource with
              | Resource.Memory pr, Resource.Memory nr ->
                if Hw.Addr.Range.includes ~outer:pr ~inner:nr then Ok ()
                else fail "node %d range escapes parent %d" n.id pid
              | pr, nr ->
                if Resource.equal pr nr then Ok ()
                else fail "node %d resource differs from parent %d" n.id pid
            end)
      in
      match parent_check with
      | Error _ as e -> e
      | Ok () -> (
        (* Split pieces under one parent must be pairwise disjoint. *)
        let split_children =
          List.filter_map
            (fun cid ->
              match Hashtbl.find_opt t.nodes cid with
              | Some c when c.origin = Orig_split -> Resource.memory_range c.resource
              | _ -> None)
            (children_list n)
        in
        let rec disjoint = function
          | [] -> true
          | r :: rest ->
            List.for_all (fun r' -> not (Hw.Addr.Range.overlaps r r')) rest
            && disjoint rest
        in
        if not (disjoint split_children) then
          fail "split children of node %d overlap" n.id
        else if n.state <> Active && IntSet.is_empty n.children then
          fail "inactive node %d has no children" n.id
        else
          (* Acyclicity: walking up must reach a root within node_count steps. *)
          let rec walk current steps =
            if steps > Hashtbl.length t.nodes then
              fail "parent cycle reachable from node %d" n.id
            else
              match Hashtbl.find_opt t.nodes current with
              | None -> fail "dangling parent link from node %d" n.id
              | Some m -> (
                match m.parent with None -> Ok () | Some p -> walk p (steps + 1))
          in
          match walk n.id 0 with Error _ as e -> e | Ok () -> first_error rest))
  in
  let frozen_exist =
    Hashtbl.fold
      (fun id () acc ->
        match acc with
        | Error _ -> acc
        | Ok () ->
          if Hashtbl.mem t.nodes id then Ok ()
          else fail "frozen capability %d does not exist" id)
      t.frozen (Ok ())
  in
  match frozen_exist with Error _ as e -> e | Ok () -> first_error nodes

(* Cross-check every incremental index against its full-scan reference.
   O(n log n); run by the judiciary sweep (Invariants.check_all) and by
   the property tests after every mutation. *)
let check_index_consistency t =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  (* Segment store sanity: sorted, disjoint, positive counts. *)
  let rec segs_ok prev_limit seq =
    match seq () with
    | Seq.Nil -> Ok ()
    | Seq.Cons ((b, s), rest) ->
      if b < prev_limit then fail "segment at 0x%x overlaps its predecessor" b
      else if s.seg_limit <= b then fail "segment at 0x%x is empty" b
      else if s.counts = [] then fail "segment at 0x%x has no holders" b
      else if List.exists (fun (_, c) -> c <= 0) s.counts then
        fail "segment at 0x%x has a non-positive count" b
      else if List.sort compare s.counts <> s.counts then
        fail "segment at 0x%x has unsorted counts" b
      else segs_ok s.seg_limit rest
  in
  let* () = segs_ok min_int (IntMap.to_seq t.segments) in
  (* The delta-maintained region map equals the sweep-line rebuild. *)
  let* () =
    if region_map t = region_map_reference t then Ok ()
    else fail "region map diverged from the sweep-line reference"
  in
  (* Per-domain cap sets equal the full scans. *)
  let domains =
    Hashtbl.fold (fun _ (n : node) acc -> n.owner :: acc) t.nodes []
    |> List.append (Hashtbl.fold (fun d _ acc -> d :: acc) t.by_domain [])
    |> List.sort_uniq Int.compare
  in
  let rec check_domains = function
    | [] -> Ok ()
    | d :: rest ->
      if caps_of_domain t d <> caps_of_domain_reference t d then
        fail "domain %d: active cap index disagrees with the scan" d
      else if all_caps_of_domain t d <> all_caps_of_domain_reference t d then
        fail "domain %d: cap index disagrees with the scan" d
      else check_domains rest
  in
  let* () = check_domains domains in
  (* Holder queries agree on every region-map segment. The O(n)-per-call
     reference scans are sampled on large maps (≤ 64 probes) to keep the
     whole check O(n log n); the index-vs-segment-store comparison still
     covers every segment. *)
  let segments = region_map t in
  let stride = max 1 (List.length segments / 64) in
  let rec check_holders i = function
    | [] -> Ok ()
    | (seg, hs) :: rest ->
      let res = Resource.Memory seg in
      if holders t res <> hs then
        fail "holders index disagrees on segment %s" (Format.asprintf "%a" Hw.Addr.Range.pp seg)
      else if i mod stride = 0 && holders t res <> holders_reference t res then
        fail "holders of %s disagree with the scan" (Format.asprintf "%a" Hw.Addr.Range.pp seg)
      else if i mod stride = 0 && active_overlapping t res <> active_overlapping_reference t res
      then
        fail "overlap query on %s disagrees with the scan"
          (Format.asprintf "%a" Hw.Addr.Range.pp seg)
      else check_holders (i + 1) rest
  in
  let* () = check_holders 0 segments in
  (* Scalar resources agree with the scan. *)
  let scalars =
    Hashtbl.fold
      (fun _ (n : node) acc ->
        match n.resource with
        | Resource.Memory _ -> acc
        | res -> if List.mem res acc then acc else res :: acc)
      t.nodes []
  in
  let rec check_scalars = function
    | [] -> Ok ()
    | res :: rest ->
      if holders t res <> holders_reference t res then
        fail "scalar holders disagree on %s" (Format.asprintf "%a" Resource.pp res)
      else check_scalars rest
  in
  let* () = check_scalars scalars in
  (* Root indexes match the roots list. *)
  let root_ids = List.sort Int.compare t.roots in
  let scan_roots =
    Hashtbl.fold (fun _ (n : node) acc -> if n.parent = None then n.id :: acc else acc) t.nodes []
    |> List.sort Int.compare
  in
  if root_ids <> scan_roots then fail "roots list disagrees with the node table"
  else begin
    let indexed_roots =
      IntMap.fold (fun _ (_, id) acc -> id :: acc) t.mem_roots []
      @ Hashtbl.fold (fun _ id acc -> id :: acc) t.scalar_roots []
      |> List.sort Int.compare
    in
    if indexed_roots <> root_ids then fail "root indexes disagree with the roots list"
    else Ok ()
  end

(* --- serialization (crash-restart recovery) ------------------------- *)

type node_spec = {
  ns_id : cap_id;
  ns_resource : Resource.t;
  ns_rights : Rights.t;
  ns_owner : domain_id;
  ns_cleanup : Revocation.t;
  ns_parent : cap_id option;
  ns_origin : origin;
  ns_state : state;
  ns_children : cap_id list;
}

let next_id t = t.next_id

let spec_of_node (n : node) =
  { ns_id = n.id;
    ns_resource = n.resource;
    ns_rights = n.node_rights;
    ns_owner = n.owner;
    ns_cleanup = n.node_cleanup;
    ns_parent = n.parent;
    ns_origin = n.origin;
    ns_state = n.state;
    ns_children = children_list n }

let dump t =
  Hashtbl.fold (fun _ n acc -> spec_of_node n :: acc) t.nodes []
  |> List.sort (fun a b -> Int.compare a.ns_id b.ns_id)

let dump_bucket t bucket =
  (* [seg_span] point lookups, newest-id last: the result is sorted by
     id, so concatenating buckets in order reproduces [dump]. *)
  let lo = bucket * seg_span in
  let acc = ref [] in
  for id = lo + seg_span - 1 downto lo do
    match Hashtbl.find_opt t.nodes id with
    | Some n -> acc := spec_of_node n :: !acc
    | None -> ()
  done;
  !acc

let restore ~next_id ~generation specs =
  let t = create () in
  t.next_id <- next_id;
  t.generation <- generation;
  (* Children lists come from the specs verbatim (revocation order
     depends on them); every index is rebuilt from scratch through the
     same helpers the incremental paths use, so a restored tree is
     indistinguishable from one that was never serialized —
     [check_index_consistency] cross-checks this after recovery. *)
  List.iter
    (fun s ->
      let n =
        { id = s.ns_id;
          resource = s.ns_resource;
          node_rights = s.ns_rights;
          owner = s.ns_owner;
          node_cleanup = s.ns_cleanup;
          parent = s.ns_parent;
          origin = s.ns_origin;
          children = IntSet.of_list s.ns_children;
          state = s.ns_state }
      in
      Hashtbl.replace t.nodes n.id n;
      domain_index_add t n.owner n.id;
      if n.state = Active then index_activate t n;
      match n.parent with
      | None ->
        t.roots <- n.id :: t.roots;
        root_index_add t n
      | Some _ -> ())
    specs;
  t

(* --- deliberate corruption (test hooks) ------------------------------ *)

(* The fsck property tests need to damage a live tree's redundant views
   in ways the audits are contractually obliged to catch. Only the
   derived indexes are touched — the node table stays intact, which is
   exactly the class of divergence [check_index_consistency] exists to
   detect. Never called outside tests. *)
module Corrupt = struct
  let seg_at t base =
    match IntMap.find_last_opt (fun b -> b <= base) t.segments with
    | Some (b, s) when s.seg_limit > base -> Some (b, s)
    | _ -> None

  let add_phantom_holder t ~base ~domain =
    match seg_at t base with
    | Some (b, s) when not (List.mem_assoc domain s.counts) ->
      t.segments <- IntMap.add b { s with counts = counts_incr s.counts domain } t.segments;
      t.region_cache <- None;
      true
    | _ -> false

  let remove_holder t ~base ~domain =
    match seg_at t base with
    | Some (b, s) when List.mem_assoc domain s.counts ->
      t.segments <- IntMap.add b { s with counts = List.remove_assoc domain s.counts } t.segments;
      t.region_cache <- None;
      true
    | _ -> false

  let drop_domain_index_entry t ~domain =
    match Hashtbl.find_opt t.by_domain domain with
    | Some tbl when Hashtbl.length tbl > 0 ->
      let id = Hashtbl.fold (fun k () acc -> max k acc) tbl (-1) in
      Hashtbl.remove tbl id;
      true
    | _ -> false
end
