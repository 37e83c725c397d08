type t = Keep | Zero | Flush_cache | Zero_and_flush

let zeroes_memory = function Zero | Zero_and_flush -> true | Keep | Flush_cache -> false
let flushes_cache = function Flush_cache | Zero_and_flush -> true | Keep | Zero -> false

let strongest a b =
  match zeroes_memory a || zeroes_memory b, flushes_cache a || flushes_cache b with
  | true, true -> Zero_and_flush
  | true, false -> Zero
  | false, true -> Flush_cache
  | false, false -> Keep

let equal a b = a = b

let to_string = function
  | Keep -> "keep"
  | Zero -> "zero"
  | Flush_cache -> "flush-cache"
  | Zero_and_flush -> "zero+flush"

let pp fmt t = Format.pp_print_string fmt (to_string t)

let to_int = function Keep -> 0 | Zero -> 1 | Flush_cache -> 2 | Zero_and_flush -> 3

let of_int = function
  | 0 -> Some Keep
  | 1 -> Some Zero
  | 2 -> Some Flush_cache
  | 3 -> Some Zero_and_flush
  | _ -> None

let apply t ~mem ~cache ~counter range =
  if zeroes_memory t then begin
    let lines = (Hw.Addr.Range.len range + Hw.Cache.line_size - 1) / Hw.Cache.line_size in
    Hw.Cycles.charge counter (lines * Hw.Cycles.Cost.zero_cache_line);
    Hw.Physmem.zero_range mem range
  end;
  if flushes_cache t then Hw.Cache.flush_range cache range
