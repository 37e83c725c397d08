(* Process-global observability, domain-safe. Each OCaml Domain gets its
   own trace ring (domain-local storage), so the emit path stays a set of
   plain column stores plus a monotonic write index — no coordination and
   no allocation — while concurrent emitters can never corrupt each
   other. Readers merge the per-domain rings into one causal view by
   (stamp, ring, seq) at read time; with a single ring (the historical
   single-threaded monitor) every read-side function behaves exactly as
   the old single-writer implementation did. Metrics are atomics: cheap
   uncontended, exact under parallelism. *)

type kind = Span_begin | Span_end | Instant

type event = {
  seq : int;
  stamp : int;
  kind : kind;
  op : string;
  span : int;
  domain : int;
  backend : string;
  trace : int;
}

(* One lock guards every find-or-create table (interning, the metrics
   registry, the per-op stats cache, the ring registry). These are
   cold paths — hot call sites hoist handles and pre-interned ids — so
   a single uncontended mutex is cheaper than finer-grained locking. *)
let global_mutex = Mutex.create ()
let locked f = Mutex.protect global_mutex f

(* --- switches -------------------------------------------------------- *)

let enabled_flag = ref true
let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b

(* Default clock: an internal tick, monotonic but meaningless — the
   monitor repoints it at the machine's simulated cycle counter. *)
let internal_ticks = Atomic.make 0

let default_clock () = Atomic.fetch_and_add internal_ticks 1 + 1

let clock = ref default_clock
let set_clock f = clock := f

(* --- name interning -------------------------------------------------- *)

(* Op and backend names are interned to small int ids: the ring then
   stores only immediates, and an int store skips the GC write barrier
   a pointer store would take — which matters at two events per span on
   paths that fire millions of spans. Ids are process-lived, like
   metric handles, and survive {!reset}. *)

let intern_tbl : (string, int) Hashtbl.t = Hashtbl.create 64
let intern_names = ref (Array.make 64 "")
let intern_count = Atomic.make 0

(* The mutex is not reentrant; paths that already hold it (stats_for)
   use this twin. *)
let intern_unlocked s =
  match Hashtbl.find_opt intern_tbl s with
  | Some id -> id
  | None ->
    let id = Atomic.get intern_count in
    if id >= Array.length !intern_names then begin
      let bigger = Array.make (2 * Array.length !intern_names) "" in
      Array.blit !intern_names 0 bigger 0 id;
      intern_names := bigger
    end;
    !intern_names.(id) <- s;
    Hashtbl.replace intern_tbl s id;
    Atomic.incr intern_count;
    id

let intern s = locked (fun () -> intern_unlocked s)

let name_of id =
  let names = !intern_names in
  if id >= 0 && id < Atomic.get intern_count && id < Array.length names then names.(id)
  else ""

(* The empty name is id 0, so an omitted backend costs nothing. *)
let () = ignore (intern "")

(* --- per-domain rings ------------------------------------------------ *)

(* Structure-of-arrays: emitting an event is six plain int stores and an
   increment — no record allocation, no write barrier, no GC pressure on
   the hot path. Event records only materialize on the (cold) read side;
   a slot's seq is recoverable from its position and its kind from the
   span column's sign (+sid begin, -sid end, 0 instant), so neither
   needs a column of its own. Each OCaml Domain owns one [ring]; only
   its owner writes, so no column store ever races. *)

let default_capacity = 4096

let round_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

type ring = {
  ring_ord : int; (* registration order; merge tie-break across rings *)
  mutable cap : int;
  mutable r_stamp : int array;
  mutable r_op : int array;
  mutable r_span : int array;
  mutable r_domain : int array;
  mutable r_trace : int array;
  mutable r_backend : int array;
  mutable written : int;
  mutable ring_open_spans : int;
  mutable cur_trace : int; (* trace context is per emitting domain *)
}

let default_cap = ref default_capacity
let ring_ord_counter = Atomic.make 0
let rings : ring list ref = ref []

let realloc r cap =
  r.cap <- cap;
  r.r_stamp <- Array.make cap 0;
  r.r_op <- Array.make cap 0;
  r.r_span <- Array.make cap 0;
  r.r_domain <- Array.make cap (-1);
  r.r_trace <- Array.make cap 0;
  r.r_backend <- Array.make cap 0;
  r.written <- 0

let new_ring () =
  let cap = !default_cap in
  let r =
    { ring_ord = Atomic.fetch_and_add ring_ord_counter 1;
      cap;
      r_stamp = Array.make cap 0;
      r_op = Array.make cap 0;
      r_span = Array.make cap 0;
      r_domain = Array.make cap (-1);
      r_trace = Array.make cap 0;
      r_backend = Array.make cap 0;
      written = 0;
      ring_open_spans = 0;
      cur_trace = 0 }
  in
  locked (fun () -> rings := !rings @ [ r ]);
  r

let ring_key = Domain.DLS.new_key new_ring

let my_ring () = Domain.DLS.get ring_key

(* Eager creation from the loading domain, so the historical "the" ring
   exists (and is ring 0) before anything else registers. *)
let () = ignore (my_ring ())

let snapshot_rings () = locked (fun () -> !rings)

(* In-bounds by construction: [cap] equals every column's length and is
   a power of two, so the masked index is < length. [op] and [backend]
   are interned ids; [span] carries the kind in its sign. *)
let emit_into r ~stamp ~op ~span ~domain ~backend =
  let i = r.written land (r.cap - 1) in
  Array.unsafe_set r.r_stamp i stamp;
  Array.unsafe_set r.r_op i op;
  Array.unsafe_set r.r_span i span;
  Array.unsafe_set r.r_domain i domain;
  Array.unsafe_set r.r_trace i r.cur_trace;
  Array.unsafe_set r.r_backend i backend;
  r.written <- r.written + 1

let emit ~stamp ~op ~span ~domain ~backend =
  emit_into (my_ring ()) ~stamp ~op ~span ~domain ~backend

(* [configure] and [reset] re-baseline the whole facility: they keep
   only the calling domain's ring registered, so accounting restarts
   from a clean slate. Rings of still-running domains re-register on
   their next emit is NOT possible (the DLS handle stays), so callers
   must quiesce spawned domains first — which every test and the
   sharded monitor's lifecycle already guarantee. *)
let configure ?capacity:(cap = default_capacity) () =
  let cap = round_pow2 (max 1 cap) in
  default_cap := cap;
  let r = my_ring () in
  locked (fun () -> rings := [ r ]);
  realloc r cap

let written () = List.fold_left (fun a r -> a + r.written) 0 (snapshot_rings ())

let ring_dropped r = max 0 (r.written - r.cap)

let dropped () = List.fold_left (fun a r -> a + ring_dropped r) 0 (snapshot_rings ())

(* --- trace context --------------------------------------------------- *)

let trace_counter = Atomic.make 0

let new_trace () = Atomic.fetch_and_add trace_counter 1 + 1

let with_trace t f =
  let r = my_ring () in
  let saved = r.cur_trace in
  r.cur_trace <- t;
  Fun.protect ~finally:(fun () -> r.cur_trace <- saved) f

let current_trace () = (my_ring ()).cur_trace

(* --- span bookkeeping ------------------------------------------------ *)

let span_counter = Atomic.make 0

let open_spans () =
  List.fold_left (fun a r -> a + r.ring_open_spans) 0 (snapshot_rings ())

let instant ?(domain = -1) ?(backend = "") op =
  if !enabled_flag then
    emit ~stamp:(!clock ()) ~op:(intern op) ~span:0 ~domain ~backend:(intern backend)

(* --- metrics --------------------------------------------------------- *)

module Metrics = struct
  (* Log2 buckets: bucket 0 holds v <= 0, bucket i >= 1 holds
     2^(i-1) .. 2^i - 1. 63 buckets cover the whole int range. *)
  let n_buckets = 63

  (* Atomics throughout: a counter bump or histogram sample from any
     domain is exact, and uncontended atomic adds cost a few ns — the
     E17 tracing-overhead ceiling still holds. *)
  type hist = {
    count : int Atomic.t;
    sum : int Atomic.t;
    max_v : int Atomic.t;
    buckets : int Atomic.t array;
  }

  type counter = int Atomic.t
  type gauge = int Atomic.t
  type histogram = hist

  type metric = Counter of counter | Gauge of gauge | Histogram of hist

  let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

  (* Zero in place rather than dropping entries: handles obtained with
     [counter]/[gauge]/[histogram] stay registered across {!reset}, so
     instrumented modules may hoist the name lookup out of their hot
     paths once and keep the handle forever. *)
  let clear () =
    locked (fun () ->
        Hashtbl.iter
          (fun _ m ->
            match m with
            | Counter c -> Atomic.set c 0
            | Gauge g -> Atomic.set g 0
            | Histogram h ->
              Atomic.set h.count 0;
              Atomic.set h.sum 0;
              Atomic.set h.max_v 0;
              Array.iter (fun b -> Atomic.set b 0) h.buckets)
          registry)

  let counter_unlocked name =
    match Hashtbl.find_opt registry name with
    | Some (Counter c) -> c
    | Some _ -> invalid_arg ("Obs.Metrics.counter: " ^ name ^ " is not a counter")
    | None ->
      let c = Atomic.make 0 in
      Hashtbl.replace registry name (Counter c);
      c

  let counter name = locked (fun () -> counter_unlocked name)

  let incr ?(by = 1) c = if !enabled_flag then ignore (Atomic.fetch_and_add c by)

  (* Per-handle zeroing, for metrics whose name outlives the thing it
     measures (per-link fleet counters survive endpoint crash-restart):
     the owner zeroes its own handles at (re)creation so post-recovery
     numbers describe only the current incarnation. Unconditional — a
     truthful zero must land even while recording is disabled. *)
  let zero_counter c = Atomic.set c 0

  let counter_value name =
    locked (fun () ->
        match Hashtbl.find_opt registry name with
        | Some (Counter c) -> Atomic.get c
        | _ -> 0)

  let gauge name =
    locked (fun () ->
        match Hashtbl.find_opt registry name with
        | Some (Gauge g) -> g
        | Some _ -> invalid_arg ("Obs.Metrics.gauge: " ^ name ^ " is not a gauge")
        | None ->
          let g = Atomic.make 0 in
          Hashtbl.replace registry name (Gauge g);
          g)

  let set_gauge g v = if !enabled_flag then Atomic.set g v
  let zero_gauge g = Atomic.set g 0

  let gauge_value name =
    locked (fun () ->
        match Hashtbl.find_opt registry name with
        | Some (Gauge g) -> Atomic.get g
        | _ -> 0)

  let histogram_unlocked name =
    match Hashtbl.find_opt registry name with
    | Some (Histogram h) -> h
    | Some _ -> invalid_arg ("Obs.Metrics.histogram: " ^ name ^ " is not a histogram")
    | None ->
      let h =
        { count = Atomic.make 0;
          sum = Atomic.make 0;
          max_v = Atomic.make 0;
          buckets = Array.init n_buckets (fun _ -> Atomic.make 0) }
      in
      Hashtbl.replace registry name (Histogram h);
      h

  let histogram name = locked (fun () -> histogram_unlocked name)

  let bucket_of v =
    if v <= 0 then 0
    else begin
      let b = ref 0 and v = ref v in
      while !v > 0 do
        Stdlib.incr b;
        v := !v lsr 1
      done;
      Int.min !b (n_buckets - 1)
    end

  let bucket_bounds i =
    if i <= 0 then (0, 0)
    else if i >= n_buckets - 1 then (1 lsl (n_buckets - 2), max_int)
    else (1 lsl (i - 1), (1 lsl i) - 1)

  (* Int-typed throughout: the polymorphic [max]/[min]/[>] would call
     the C comparison on every span. *)
  let rec atomic_max (a : int Atomic.t) v =
    let cur = Atomic.get a in
    if v > cur && not (Atomic.compare_and_set a cur v) then atomic_max a v

  (* Unguarded twin for callers that already sit behind the enabled
     check (the Profile span path): re-testing the flag per sample is
     dead weight there. *)
  let observe_unguarded h v =
    let v = Int.max 0 v in
    ignore (Atomic.fetch_and_add h.count 1);
    ignore (Atomic.fetch_and_add h.sum v);
    atomic_max h.max_v v;
    let b = bucket_of v in
    ignore (Atomic.fetch_and_add (Array.unsafe_get h.buckets b) 1)

  let observe h v = if !enabled_flag then observe_unguarded h v

  let find_hist name =
    locked (fun () ->
        match Hashtbl.find_opt registry name with
        | Some (Histogram h) -> Some h
        | _ -> None)

  let histogram_count name =
    match find_hist name with Some h -> Atomic.get h.count | None -> 0

  let histogram_sum name =
    match find_hist name with Some h -> Atomic.get h.sum | None -> 0

  let histogram_max name =
    match find_hist name with Some h -> Atomic.get h.max_v | None -> 0

  let percentile_of h p =
    let total = Atomic.get h.count in
    if total = 0 then None
    else begin
      let target = max 1 (int_of_float (ceil (p *. float_of_int total))) in
      let cum = ref 0 and found = ref None in
      (try
         for i = 0 to n_buckets - 1 do
           cum := !cum + Atomic.get h.buckets.(i);
           if !cum >= target then begin
             found := Some (snd (bucket_bounds i));
             raise Exit
           end
         done
       with Exit -> ());
      !found
    end

  let percentile name p =
    match find_hist name with None -> None | Some h -> percentile_of h p

  let sorted f =
    locked (fun () ->
        Hashtbl.fold
          (fun k v acc -> match f v with Some x -> (k, x) :: acc | None -> acc)
          registry [])
    |> List.sort compare

  let counters () = sorted (function Counter c -> Some (Atomic.get c) | _ -> None)
  let gauges () = sorted (function Gauge g -> Some (Atomic.get g) | _ -> None)
  let histograms () = sorted (function Histogram h -> Some h | _ -> None)
end

(* --- per-op handle cache --------------------------------------------- *)

(* One string lookup per span instead of two name concatenations, two
   registry lookups and a tuple-keyed per-domain bump — and callers on
   truly hot paths can skip even that by hoisting a {!Profile.handle}.
   That is the difference between ~300 ns and a few tens of ns of
   overhead per span, which is what keeps the E17 tracing-on ceiling
   honest. *)
type op_stats = {
  os_op : string;
  os_id : int;
  os_lat : Metrics.histogram;
  os_count : Metrics.counter;
  (* Per-domain op counts: domain ids are small ints in practice, so
     the common case is a direct array bump; the hashtable only catches
     the long tail (domain >= small_domains). The array bumps are plain
     (racy-benign: a concurrent bump of the same cell from two OCaml
     domains may lose a count, never corrupt); the tail hashtable is
     mutex-guarded because concurrent structural mutation is not. *)
  os_dom_small : int array;
  os_domains : (int, int ref) Hashtbl.t;
}

let small_domains = 64

let op_cache : (string, op_stats) Hashtbl.t = Hashtbl.create 64

let stats_for op =
  locked (fun () ->
      match Hashtbl.find_opt op_cache op with
      | Some st -> st
      | None ->
        let st =
          { os_op = op;
            os_id = intern_unlocked op;
            os_lat = Metrics.histogram_unlocked ("lat." ^ op);
            os_count = Metrics.counter_unlocked ("op." ^ op);
            os_dom_small = Array.make small_domains 0;
            os_domains = Hashtbl.create 8 }
        in
        Hashtbl.replace op_cache op st;
        st)

let bump_domain_op st domain =
  if domain >= 0 then
    if domain < small_domains then
      Array.unsafe_set st.os_dom_small domain
        (Array.unsafe_get st.os_dom_small domain + 1)
    else
      locked (fun () ->
          match Hashtbl.find_opt st.os_domains domain with
          | Some c -> incr c
          | None -> Hashtbl.replace st.os_domains domain (ref 1))

(* --- profiling ------------------------------------------------------- *)

module Profile = struct
  type handle = op_stats

  let handle = stats_for

  let finish r st sid domain backend t0 =
    let t1 = !clock () in
    emit_into r ~stamp:t1 ~op:st.os_id ~span:(-sid) ~domain ~backend;
    r.ring_open_spans <- r.ring_open_spans - 1;
    (* Spans only start while enabled, so skip the per-sample flag
       re-checks that Metrics.observe/incr would do. *)
    Metrics.observe_unguarded st.os_lat (t1 - t0);
    ignore (Atomic.fetch_and_add st.os_count 1);
    bump_domain_op st domain

  (* Hand-rolled instead of [Fun.protect]: no [finally] closure on the
     hot path, same balance guarantee — the end event is emitted whether
     [f] returns or raises. The ring is resolved once per span; begin
     and end always land in the same (the caller's) ring. *)
  let run st domain backend f =
    let r = my_ring () in
    let sid = Atomic.fetch_and_add span_counter 1 + 1 in
    r.ring_open_spans <- r.ring_open_spans + 1;
    let t0 = !clock () in
    emit_into r ~stamp:t0 ~op:st.os_id ~span:sid ~domain ~backend;
    match f () with
    | v ->
      finish r st sid domain backend t0;
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish r st sid domain backend t0;
      Printexc.raise_with_backtrace e bt

  (* [backend] here is a pre-interned id (see {!intern}): hot call
     sites hoist it once next to their handle, so a span passes only
     immediates. *)
  let span_h ?(domain = -1) ?(backend = 0) h f =
    if not !enabled_flag then f () else run h domain backend f

  let span ?(domain = -1) ?(backend = "") op f =
    if not !enabled_flag then f () else run (stats_for op) domain (intern backend) f
end

(* --- reading back ---------------------------------------------------- *)

let ring_raw r =
  let total = r.written in
  let n = min total r.cap in
  let start = total - n in
  let mask = r.cap - 1 in
  List.init n (fun j ->
      let s = start + j in
      let i = s land mask in
      let enc = r.r_span.(i) in
      { seq = s; stamp = r.r_stamp.(i);
        kind = (if enc > 0 then Span_begin else if enc < 0 then Span_end else Instant);
        op = name_of r.r_op.(i); span = abs enc; domain = r.r_domain.(i);
        backend = name_of r.r_backend.(i); trace = r.r_trace.(i) })

(* Merge per-ring event lists into one causal view: order by stamp,
   breaking ties by ring registration order then per-ring seq. With a
   single ring this is exactly the per-ring order (stamps are
   non-decreasing in seq — both clocks are monotonic), so the
   historical single-writer read-back is unchanged. *)
let merge_rings per_ring =
  match per_ring with
  | [ (_, evs) ] -> evs
  | _ ->
    per_ring
    |> List.concat_map (fun (ord, evs) -> List.map (fun e -> (ord, e)) evs)
    |> List.sort (fun (o1, e1) (o2, e2) ->
           compare (e1.stamp, o1, e1.seq) (e2.stamp, o2, e2.seq))
    |> List.map snd

(* Wraparound coherence: a span-end whose begin fell off the ring is
   suppressed, so readers only ever see whole pairs (or a begin whose
   end has not happened yet). Spans begin and end in one ring, so the
   suppression is per ring, before merging. *)
let ring_events r =
  let evs = ring_raw r in
  let begins = Hashtbl.create 64 in
  List.iter (fun e -> if e.kind = Span_begin then Hashtbl.replace begins e.span ()) evs;
  List.filter (fun e -> e.kind <> Span_end || Hashtbl.mem begins e.span) evs

let events () =
  merge_rings (List.map (fun r -> (r.ring_ord, ring_events r)) (snapshot_rings ()))

let kind_name = function
  | Span_begin -> "span_begin"
  | Span_end -> "span_end"
  | Instant -> "instant"

let event_to_json e =
  Printf.sprintf
    {|{"seq":%d,"stamp":%d,"kind":%S,"op":%S,"span":%d,"domain":%d,"backend":%S,"trace":%d}|}
    e.seq e.stamp (kind_name e.kind) e.op e.span e.domain e.backend e.trace

let check () =
  let rs = snapshot_rings () in
  let opens = List.fold_left (fun a r -> a + r.ring_open_spans) 0 rs in
  if opens <> 0 then Error (Printf.sprintf "unbalanced spans: %d still open" opens)
  else begin
    let rec per_ring = function
      | [] -> Ok ()
      | r :: rest ->
        let raw = ring_raw r in
        let retained = List.length raw in
        if retained + ring_dropped r <> r.written then
          Error
            (Printf.sprintf
               "event accounting mismatch: %d retained + %d dropped <> %d written"
               retained (ring_dropped r) r.written)
        else begin
          let orphans = retained - List.length (ring_events r) in
          if r.written <= r.cap && orphans > 0 then
            Error (Printf.sprintf "%d orphan span ends without wraparound" orphans)
          else begin
            let rec mono = function
              | a :: (b :: _ as rest) ->
                if a.seq >= b.seq then
                  Error (Printf.sprintf "non-monotonic seq: %d then %d" a.seq b.seq)
                else mono rest
              | _ -> Ok ()
            in
            match mono raw with Error _ as e -> e | Ok () -> per_ring rest
          end
        end
    in
    per_ring rs
  end

(* --- reset ----------------------------------------------------------- *)

let reset () =
  let r = my_ring () in
  locked (fun () -> rings := [ r ]);
  realloc r r.cap;
  r.ring_open_spans <- 0;
  r.cur_trace <- 0;
  Atomic.set internal_ticks 0;
  Atomic.set span_counter 0;
  Atomic.set trace_counter 0;
  Metrics.clear ();
  locked (fun () ->
      Hashtbl.iter
        (fun _ st ->
          Array.fill st.os_dom_small 0 small_domains 0;
          Hashtbl.reset st.os_domains)
        op_cache)

(* --- report ---------------------------------------------------------- *)

type histogram_summary = {
  h_count : int;
  h_sum : int;
  h_max : int;
  h_p50 : int;
  h_p90 : int;
  h_p99 : int;
}

type report = {
  r_enabled : bool;
  r_written : int;
  r_dropped : int;
  r_open_spans : int;
  r_counters : (string * int) list;
  r_gauges : (string * int) list;
  r_histograms : (string * histogram_summary) list;
  r_domain_ops : (int * (string * int) list) list;
}

let summarize (h : Metrics.hist) =
  let p q = Option.value ~default:0 (Metrics.percentile_of h q) in
  { h_count = Atomic.get h.Metrics.count;
    h_sum = Atomic.get h.Metrics.sum;
    h_max = Atomic.get h.Metrics.max_v;
    h_p50 = p 0.5; h_p90 = p 0.9; h_p99 = p 0.99 }

let report () =
  let doms =
    locked (fun () ->
        Hashtbl.fold
          (fun op st acc ->
            let acc =
              Hashtbl.fold (fun d c acc -> (d, op, !c) :: acc) st.os_domains acc
            in
            let acc = ref acc in
            Array.iteri
              (fun d c -> if c > 0 then acc := (d, op, c) :: !acc)
              st.os_dom_small;
            !acc)
          op_cache [])
    |> List.sort compare
  in
  let grouped =
    List.fold_left
      (fun acc (d, op, c) ->
        match acc with
        | (d', ops) :: rest when d' = d -> (d', (op, c) :: ops) :: rest
        | _ -> (d, [ (op, c) ]) :: acc)
      [] doms
    |> List.rev_map (fun (d, ops) -> (d, List.rev ops))
  in
  { r_enabled = !enabled_flag;
    r_written = written ();
    r_dropped = dropped ();
    r_open_spans = open_spans ();
    r_counters = Metrics.counters ();
    r_gauges = Metrics.gauges ();
    r_histograms = List.map (fun (n, h) -> (n, summarize h)) (Metrics.histograms ());
    r_domain_ops = grouped }

let pp_report fmt r =
  Format.fprintf fmt "obs: %s, %d events (%d dropped), %d open spans@\n"
    (if r.r_enabled then "enabled" else "disabled")
    r.r_written r.r_dropped r.r_open_spans;
  if r.r_counters <> [] then begin
    Format.fprintf fmt "counters:@\n";
    List.iter (fun (n, v) -> Format.fprintf fmt "  %-32s %d@\n" n v) r.r_counters
  end;
  if r.r_gauges <> [] then begin
    Format.fprintf fmt "gauges:@\n";
    List.iter (fun (n, v) -> Format.fprintf fmt "  %-32s %d@\n" n v) r.r_gauges
  end;
  if r.r_histograms <> [] then begin
    Format.fprintf fmt "histograms (cycles; p50/p90/p99 are bucket upper bounds):@\n";
    List.iter
      (fun (n, h) ->
        Format.fprintf fmt "  %-32s n=%-7d p50=%-7d p90=%-7d p99=%-7d max=%d@\n" n
          h.h_count h.h_p50 h.h_p90 h.h_p99 h.h_max)
      r.r_histograms
  end;
  if r.r_domain_ops <> [] then begin
    Format.fprintf fmt "per-domain op counts:@\n";
    List.iter
      (fun (d, ops) ->
        Format.fprintf fmt "  domain %d:@\n" d;
        List.iter (fun (op, c) -> Format.fprintf fmt "    %-30s %d@\n" op c) ops)
      r.r_domain_ops
  end

let report_to_json r =
  let b = Buffer.create 1024 in
  let comma_sep f xs =
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string b ",";
        f x)
      xs
  in
  Buffer.add_string b
    (Printf.sprintf {|{"enabled":%b,"written":%d,"dropped":%d,"open_spans":%d,"counters":{|}
       r.r_enabled r.r_written r.r_dropped r.r_open_spans);
  comma_sep (fun (n, v) -> Buffer.add_string b (Printf.sprintf "%S:%d" n v)) r.r_counters;
  Buffer.add_string b {|},"gauges":{|};
  comma_sep (fun (n, v) -> Buffer.add_string b (Printf.sprintf "%S:%d" n v)) r.r_gauges;
  Buffer.add_string b {|},"histograms":{|};
  comma_sep
    (fun (n, h) ->
      Buffer.add_string b
        (Printf.sprintf {|%S:{"count":%d,"sum":%d,"max":%d,"p50":%d,"p90":%d,"p99":%d}|} n
           h.h_count h.h_sum h.h_max h.h_p50 h.h_p90 h.h_p99))
    r.r_histograms;
  Buffer.add_string b {|},"domain_ops":{|};
  comma_sep
    (fun (d, ops) ->
      Buffer.add_string b (Printf.sprintf {|"%d":{|} d);
      comma_sep (fun (op, c) -> Buffer.add_string b (Printf.sprintf "%S:%d" op c)) ops;
      Buffer.add_string b "}")
    r.r_domain_ops;
  Buffer.add_string b "}}";
  Buffer.contents b
