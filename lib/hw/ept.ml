type entry = { hpa : Addr.t; perm : Perm.t }

type t = {
  pages : (int, entry) Hashtbl.t; (* key: gpa page index *)
  (* Reverse index: hpa page index -> the gpa pages mapping it (more
     than one only when gpas alias). The revocation queries walk the
     revoked range's pages here instead of folding the whole table. *)
  by_hpa : int Page_index.t;
  counter : Cycles.counter;
  id : int;
}

exception Violation of { gpa : Addr.t; access : [ `Read | `Write | `Exec ] }

(* Injection points: a page-table write that fails mid-update. *)
let map_fault = Fault.register "ept.map"
let unmap_fault = Fault.register "ept.unmap"

let next_id = ref 0

let create ~counter =
  incr next_id;
  { pages = Hashtbl.create 64; by_hpa = Page_index.create 64; counter; id = !next_id }

let page_index a = a / Addr.page_size

let map_page t ~gpa ~hpa perm =
  if not (Addr.is_page_aligned gpa && Addr.is_page_aligned hpa) then
    invalid_arg "Ept.map_page: unaligned address";
  Fault.hit map_fault;
  Cycles.charge t.counter Cycles.Cost.ept_map_page;
  let g = page_index gpa and h = page_index hpa in
  (match Hashtbl.find_opt t.pages g with
  | Some old when old.hpa = hpa -> ()
  | Some old ->
    Page_index.remove t.by_hpa ~page:(page_index old.hpa) g;
    Page_index.add t.by_hpa ~page:h g
  | None -> Page_index.add t.by_hpa ~page:h g);
  Hashtbl.replace t.pages g { hpa; perm }

let map_range t ~gpa range perm =
  if not (Addr.Range.is_page_aligned range) || not (Addr.is_page_aligned gpa) then
    invalid_arg "Ept.map_range: unaligned range";
  List.iteri
    (fun i hpa -> map_page t ~gpa:(gpa + (i * Addr.page_size)) ~hpa perm)
    (Addr.Range.pages range)

let remove t g =
  match Hashtbl.find_opt t.pages g with
  | None -> ()
  | Some { hpa; _ } ->
    Page_index.remove t.by_hpa ~page:(page_index hpa) g;
    Hashtbl.remove t.pages g

let unmap_page t ~gpa =
  Fault.hit unmap_fault;
  Cycles.charge t.counter Cycles.Cost.ept_unmap_page;
  remove t (page_index gpa)

(* Fold [f] over the mappings whose hpa page index lies in [lo, hi]:
   walk those pages in the reverse index, or fold the table once when
   the span has more pages than the table has entries — whichever
   examines fewer entries. *)
let fold_targeting t ~lo ~hi f acc =
  let size = Hashtbl.length t.pages in
  if hi - lo + 1 > size then begin
    Cycles.examine t.counter size;
    Hashtbl.fold
      (fun g e acc ->
        let h = page_index e.hpa in
        if h >= lo && h <= hi then f g e acc else acc)
      t.pages acc
  end
  else begin
    Cycles.examine t.counter (hi - lo + 1);
    let acc = ref acc in
    for h = lo to hi do
      List.iter
        (fun g ->
          Cycles.examine t.counter 1;
          acc := f g (Hashtbl.find t.pages g) !acc)
        (Page_index.find t.by_hpa ~page:h)
    done;
    !acc
  end

(* Pages whose base lies in the range: the mappings a revocation of
   the range removes. *)
let fold_contained t range f acc =
  fold_targeting t
    ~lo:(page_index (Addr.Range.base range + Addr.page_size - 1))
    ~hi:(page_index (Addr.Range.last range))
    f acc

let unmap_hpa_range t range =
  let victims = fold_contained t range (fun g _ acc -> g :: acc) [] in
  List.iter
    (fun g ->
      Fault.hit unmap_fault;
      Cycles.charge t.counter Cycles.Cost.ept_unmap_page;
      remove t g)
    victims;
  List.length victims

let translate t ~gpa ~access =
  Cycles.charge t.counter Cycles.Cost.page_table_walk;
  match Hashtbl.find_opt t.pages (page_index gpa) with
  | None -> raise (Violation { gpa; access })
  | Some { hpa; perm } ->
    if Perm.allows perm access then hpa + (gpa land (Addr.page_size - 1))
    else raise (Violation { gpa; access })

let entry_at t ~gpa =
  match Hashtbl.find_opt t.pages (page_index gpa) with
  | Some { hpa; perm } -> Some (hpa, perm)
  | None -> None

let mappings_to t range =
  fold_contained t range
    (fun g { hpa; perm } acc -> (g * Addr.page_size, hpa, perm) :: acc)
    []

let mapped_pages t = Hashtbl.length t.pages

let hpa_reachable t addr =
  let h = page_index addr in
  fold_targeting t ~lo:h ~hi:h (fun _ { perm; _ } acc -> Perm.union acc perm) Perm.none

let iter_mappings t f =
  (* Sort so iteration order is deterministic for tests and attestation. *)
  let entries =
    Hashtbl.fold (fun gpa_idx e acc -> (gpa_idx, e) :: acc) t.pages []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  List.iter
    (fun (gpa_idx, { hpa; perm }) -> f ~gpa:(gpa_idx * Addr.page_size) ~hpa perm)
    entries

let reaches_hpa_range t range =
  fold_targeting t
    ~lo:(page_index (Addr.Range.base range))
    ~hi:(page_index (Addr.Range.last range))
    (fun _ _ _ -> true)
    false

module Eptp_list = struct
  type ept = t
  type nonrec t = { slots : ept option array; mutable used : int }

  let max_entries = 512

  let create () = { slots = Array.make max_entries None; used = 0 }

  let slot_of t ept =
    let rec find i =
      if i >= t.used then None
      else
        match t.slots.(i) with
        | Some e when e.id = ept.id -> Some i
        | _ -> find (i + 1)
    in
    find 0

  let register t ept =
    match slot_of t ept with
    | Some i -> Some i
    | None ->
      if t.used >= max_entries then None
      else begin
        let i = t.used in
        t.slots.(i) <- Some ept;
        t.used <- i + 1;
        Some i
      end

  let get t i = if i < 0 || i >= t.used then None else t.slots.(i)
  let count t = t.used
end
