type mode = Off | Record | Enforce

type surface = Mem | Line | Tlb_entry

let surface_to_string = function
  | Mem -> "mem"
  | Line -> "cache-line"
  | Tlb_entry -> "tlb"

type leak = { surface : surface; reader : int; prior : int; addr : Addr.t }

exception Leak of leak

let pp_leak fmt l =
  Format.fprintf fmt "%s leak: domain %d observed domain %d's residue at %a"
    (surface_to_string l.surface) l.reader l.prior Addr.pp l.addr

type entry = { prior : int; guarded : bool }

type t = {
  mutable mode : mode;
  pages : (int, entry) Hashtbl.t; (* page index -> residue *)
  lines : (int, entry) Hashtbl.t; (* cache line index -> residue *)
  tlb : (int * int, int) Hashtbl.t; (* (asid, gpa page) -> prior owner *)
  mutable leaks : int;
  mutable sanctioned : int;
  mutable last : leak option;
}

let create () =
  { mode = Record;
    pages = Hashtbl.create 64;
    lines = Hashtbl.create 64;
    tlb = Hashtbl.create 16;
    leaks = 0;
    sanctioned = 0;
    last = None }

let mode t = t.mode
let set_mode t m = t.mode <- m

(* Undo journal: the previous binding of every key a taint call
   touched, so backends can roll a faulted operation back to the exact
   prior taint state. *)
type undo =
  | Pages of (int * entry option) list
  | Lines of (int * entry option) list
  | Tlb of ((int * int) * int option) list

let set_opt tbl key = function
  | Some v -> Hashtbl.replace tbl key v
  | None -> Hashtbl.remove tbl key

let taint_pages t range ~prior ~guarded =
  if t.mode = Off then Pages []
  else begin
    let first = Addr.Range.base range / Addr.page_size
    and last = Addr.Range.last range / Addr.page_size in
    let saved = ref [] in
    for page = first to last do
      saved := (page, Hashtbl.find_opt t.pages page) :: !saved;
      Hashtbl.replace t.pages page { prior; guarded }
    done;
    Pages !saved
  end

let taint_lines t keys ~prior ~guarded =
  if t.mode = Off then Lines []
  else
    Lines
      (List.map
         (fun line ->
           let prev = Hashtbl.find_opt t.lines line in
           Hashtbl.replace t.lines line { prior; guarded };
           (line, prev))
         keys)

let taint_tlb t keys ~prior =
  if t.mode = Off then Tlb []
  else
    Tlb
      (List.map
         (fun (asid, gpa) ->
           let key = (asid, Addr.align_down gpa) in
           let prev = Hashtbl.find_opt t.tlb key in
           Hashtbl.replace t.tlb key prior;
           (key, prev))
         keys)

let undo t = function
  | Pages saved -> List.iter (fun (k, v) -> set_opt t.pages k v) saved
  | Lines saved -> List.iter (fun (k, v) -> set_opt t.lines k v) saved
  | Tlb saved -> List.iter (fun (k, v) -> set_opt t.tlb k v) saved

let clear_pages t range =
  let first = Addr.Range.base range / Addr.page_size
  and last = Addr.Range.last range / Addr.page_size in
  for page = first to last do
    Hashtbl.remove t.pages page
  done

let clear_lines t ~first ~last =
  if last - first + 1 > Hashtbl.length t.lines then begin
    let victims =
      Hashtbl.fold
        (fun line _ acc -> if line >= first && line <= last then line :: acc else acc)
        t.lines []
    in
    List.iter (Hashtbl.remove t.lines) victims
  end
  else
    for line = first to last do
      Hashtbl.remove t.lines line
    done

let clear_all_lines t = Hashtbl.reset t.lines

let clear_tlb_entry t ~asid ~gpa = Hashtbl.remove t.tlb (asid, Addr.align_down gpa)

let clear_tlb_asid t ~asid =
  let victims =
    Hashtbl.fold (fun (a, g) _ acc -> if a = asid then (a, g) :: acc else acc) t.tlb []
  in
  List.iter (Hashtbl.remove t.tlb) victims

let clear_all_tlb t = Hashtbl.reset t.tlb

let line_size = 64 (* must agree with Cache.line_size; asserted in Cache *)

let leak t l =
  t.leaks <- t.leaks + 1;
  t.last <- Some l;
  if t.mode = Enforce then raise (Leak l)

let observe surface t tbl key ~reader ~addr =
  match Hashtbl.find_opt tbl key with
  | None -> ()
  | Some { prior; _ } when prior = reader -> ()
  | Some { prior; guarded = true } -> leak t { surface; reader; prior; addr }
  | Some { prior = _; guarded = false } -> t.sanctioned <- t.sanctioned + 1

let observe_page t ~reader addr =
  if t.mode <> Off then
    observe Mem t t.pages (addr / Addr.page_size) ~reader ~addr:(Addr.align_down addr)

let observe_line t ~reader addr =
  if t.mode <> Off then
    observe Line t t.lines (addr / line_size) ~reader ~addr:(addr / line_size * line_size)

let observe_tlb t ~asid ~gpa =
  if t.mode <> Off then begin
    let gpa = Addr.align_down gpa in
    match Hashtbl.find_opt t.tlb (asid, gpa) with
    | None -> ()
    | Some prior ->
      (* A hit on a tainted entry is a violation even when reader =
         prior: the translation was supposed to be gone, and using it
         skips the post-revocation EPT/PMP check. *)
      leak t { surface = Tlb_entry; reader = asid; prior; addr = gpa }
  end

type stats = {
  tainted_pages : int;
  tainted_lines : int;
  tainted_tlb : int;
  leaks : int;
  sanctioned : int;
}

let stats t =
  { tainted_pages = Hashtbl.length t.pages;
    tainted_lines = Hashtbl.length t.lines;
    tainted_tlb = Hashtbl.length t.tlb;
    leaks = t.leaks;
    sanctioned = t.sanctioned }

let last_leak t = t.last

let guarded_residue t =
  let pages =
    Hashtbl.fold
      (fun page e acc ->
        if e.guarded then (Mem, page * Addr.page_size, e.prior) :: acc else acc)
      t.pages []
  in
  let lines =
    Hashtbl.fold
      (fun line e acc ->
        if e.guarded then (Line, line * line_size, e.prior) :: acc else acc)
      t.lines pages
  in
  Hashtbl.fold (fun (_, gpa) prior acc -> (Tlb_entry, gpa, prior) :: acc) t.tlb lines
  |> List.sort compare

let reset_counters (t : t) =
  t.leaks <- 0;
  t.sanctioned <- 0;
  t.last <- None
