let line_size = 64
let lines_per_page = Addr.page_size / line_size

(* Residency is grouped by 4 KiB page: one tag array per page that
   holds any resident line, so a range query walks the range's pages
   and reads their lines from one contiguous block. [absent] marks a
   line slot that is not resident. *)
let absent = min_int

type page = { tags : int array; mutable count : int }

type t = {
  pages : (int, page) Hashtbl.t; (* page index -> its lines' last-toucher tags *)
  mutable resident : int;
  counter : Cycles.counter;
  mutable taint : Taint.t option;
}

(* Taint stores line indexes computed from its own copy of the line
   size; keep the two in lock step. *)
let () = assert (line_size = Taint.line_size)

let create ~counter = { pages = Hashtbl.create 256; resident = 0; counter; taint = None }

let set_taint t taint = t.taint <- Some taint

let touch t ~tag addr =
  (* A fill observes whatever the line still holds before overwriting
     the tag — the probe a co-resident attacker performs. *)
  (match t.taint with None -> () | Some tt -> Taint.observe_line tt ~reader:tag addr);
  let line = addr / line_size in
  let idx = line / lines_per_page in
  let p =
    match Hashtbl.find_opt t.pages idx with
    | Some p -> p
    | None ->
      let p = { tags = Array.make lines_per_page absent; count = 0 } in
      Hashtbl.add t.pages idx p;
      p
  in
  let slot = line land (lines_per_page - 1) in
  if p.tags.(slot) = absent then begin
    p.count <- p.count + 1;
    t.resident <- t.resident + 1
  end;
  p.tags.(slot) <- tag

let resident_lines t = t.resident

(* Fold [f line tag] over page [idx]'s resident lines within [first,
   last] (line indexes). *)
let fold_page idx p ~first ~last f acc =
  let base = idx * lines_per_page in
  let acc = ref acc in
  for line = max first base to min last (base + lines_per_page - 1) do
    let tag = p.tags.(line - base) in
    if tag <> absent then acc := f line tag !acc
  done;
  !acc

(* The same over every page holding lines in [first, last]: walk the
   span's pages, or fold the page table once when the span covers more
   pages than are resident. *)
let fold_lines t ~first ~last f acc =
  let lo = first / lines_per_page and hi = last / lines_per_page in
  let size = Hashtbl.length t.pages in
  if hi - lo + 1 > size then begin
    Cycles.examine t.counter size;
    Hashtbl.fold
      (fun idx p acc -> if idx >= lo && idx <= hi then fold_page idx p ~first ~last f acc else acc)
      t.pages acc
  end
  else begin
    Cycles.examine t.counter (hi - lo + 1);
    let acc = ref acc in
    for idx = lo to hi do
      match Hashtbl.find_opt t.pages idx with
      | Some p -> acc := fold_page idx p ~first ~last f !acc
      | None -> ()
    done;
    !acc
  end

let fold_all t f acc =
  Hashtbl.fold (fun idx p acc -> fold_page idx p ~first:0 ~last:max_int f acc) t.pages acc

let lines_tagged t ~tag =
  fold_all t (fun _ owner acc -> if owner = tag then acc + 1 else acc) 0

let resident_lines_in t range =
  fold_lines t
    ~first:(Addr.Range.base range / line_size)
    ~last:(Addr.Range.last range / line_size)
    (fun line _ acc -> line :: acc)
    []

let lines_of_tag t ~tag =
  fold_all t (fun line owner acc -> if owner = tag then line :: acc else acc) []

let flush_range t range =
  let first = Addr.Range.base range / line_size
  and last = Addr.Range.last range / line_size in
  Cycles.charge t.counter ((last - first + 1) * Cycles.Cost.cache_flush_line);
  let victims = fold_lines t ~first ~last (fun line _ acc -> line :: acc) [] in
  List.iter
    (fun line ->
      let idx = line / lines_per_page in
      let p = Hashtbl.find t.pages idx in
      p.tags.(line land (lines_per_page - 1)) <- absent;
      p.count <- p.count - 1;
      t.resident <- t.resident - 1;
      if p.count = 0 then Hashtbl.remove t.pages idx)
    victims;
  match t.taint with None -> () | Some tt -> Taint.clear_lines tt ~first ~last

let flush_all t =
  Cycles.charge t.counter Cycles.Cost.cache_flush_full;
  Hashtbl.reset t.pages;
  t.resident <- 0;
  match t.taint with None -> () | Some tt -> Taint.clear_all_lines tt
