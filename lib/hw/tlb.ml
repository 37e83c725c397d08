type t = {
  entries : (int * int, Addr.t) Hashtbl.t; (* (asid, gpa page) -> hpa page *)
  (* hpa page index -> the (asid, gpa page) keys translating into it:
     range queries walk the range's pages instead of the whole TLB. *)
  by_hpa : (int * int) Page_index.t;
  counter : Cycles.counter;
  mutable taint : Taint.t option;
}

let create ~counter =
  { entries = Hashtbl.create 256; by_hpa = Page_index.create 256; counter; taint = None }

let set_taint t taint = t.taint <- Some taint

let page_index a = a / Addr.page_size

let fill t ~asid ~gpa ~hpa =
  let key = (asid, Addr.align_down gpa) and hpa = Addr.align_down hpa in
  match Hashtbl.find_opt t.entries key with
  | Some old when old = hpa -> ()
  | old ->
    Option.iter (fun old -> Page_index.remove t.by_hpa ~page:(page_index old) key) old;
    Page_index.add t.by_hpa ~page:(page_index hpa) key;
    Hashtbl.replace t.entries key hpa

let lookup t ~asid ~gpa =
  match Hashtbl.find_opt t.entries (asid, Addr.align_down gpa) with
  | Some hpa_page ->
    (* The hazard the oracle exists for: on x86 a hit skips the EPT
       walk, so a stale entry is a revocation bypass. A hit on a
       tainted entry means the required shootdown never happened. *)
    (match t.taint with None -> () | Some tt -> Taint.observe_tlb tt ~asid ~gpa);
    Some (hpa_page + (gpa land (Addr.page_size - 1)))
  | None -> None

let flush_all t =
  Cycles.charge t.counter Cycles.Cost.tlb_flush_full;
  Hashtbl.reset t.entries;
  Page_index.reset t.by_hpa;
  match t.taint with None -> () | Some tt -> Taint.clear_all_tlb tt

let flush_asid t ~asid =
  Cycles.charge t.counter Cycles.Cost.tlb_flush_asid;
  let victims =
    Hashtbl.fold
      (fun ((a, _) as key) hpa acc -> if a = asid then (key, hpa) :: acc else acc)
      t.entries []
  in
  List.iter
    (fun (key, hpa) ->
      Page_index.remove t.by_hpa ~page:(page_index hpa) key;
      Hashtbl.remove t.entries key)
    victims;
  match t.taint with None -> () | Some tt -> Taint.clear_tlb_asid tt ~asid

let shootdown t ~remote_cores =
  Cycles.charge t.counter (remote_cores * Cycles.Cost.tlb_shootdown_ipi);
  flush_all t

let entries t = Hashtbl.length t.entries

let all_entries t =
  Hashtbl.fold (fun (asid, gpa) hpa acc -> (asid, gpa, hpa) :: acc) t.entries []

(* Keys of the entries translating into a page overlapping the range
   and accepted by [keep]: walk the range's pages in [by_hpa], or fold
   the TLB once when the range has more pages than the index holds. *)
let into t range keep =
  let lo = page_index (Addr.Range.base range) and hi = page_index (Addr.Range.last range) in
  let size = Page_index.pages t.by_hpa in
  if hi - lo + 1 > size then begin
    Cycles.examine t.counter (Hashtbl.length t.entries);
    Hashtbl.fold
      (fun ((asid, _) as key) hpa acc ->
        let h = page_index hpa in
        if h >= lo && h <= hi && keep asid then key :: acc else acc)
      t.entries []
  end
  else begin
    Cycles.examine t.counter (hi - lo + 1);
    let acc = ref [] in
    for h = lo to hi do
      List.iter
        (fun ((asid, _) as key) ->
          Cycles.examine t.counter 1;
          if keep asid then acc := key :: !acc)
        (Page_index.find t.by_hpa ~page:h)
    done;
    !acc
  end

let stale_for_hpa t range = into t range (fun _ -> true)

let entries_into t ~asid range = into t range (fun a -> a = asid)
