type t = {
  arch : Cpu.arch;
  mem : Physmem.t;
  cores : Cpu.t array;
  iommu : Iommu.t;
  tlb : Tlb.t;
  cache : Cache.t;
  interrupts : Interrupt.t;
  counter : Cycles.counter;
  taint : Taint.t;
  mutable devices : Device.t list;
}

let create ?(arch = Cpu.X86_64) ?(cores = 4) ?(mem_size = 32 * 1024 * 1024) () =
  if cores <= 0 then invalid_arg "Machine.create: need at least one core";
  let counter = Cycles.create () in
  let taint = Taint.create () in
  let mem = Physmem.create ~size:mem_size in
  let tlb = Tlb.create ~counter in
  let cache = Cache.create ~counter in
  Physmem.set_taint mem taint;
  Tlb.set_taint tlb taint;
  Cache.set_taint cache taint;
  { arch;
    mem;
    cores = Array.init cores (fun id -> Cpu.create ~arch ~id ~counter);
    iommu = Iommu.create ~counter;
    tlb;
    cache;
    interrupts = Interrupt.create ~counter;
    counter;
    taint;
    devices = [] }

let attach_device t d = t.devices <- (d :: Device.virtual_functions d) @ t.devices

let find_device t ~bdf = List.find_opt (fun d -> Device.bdf d = bdf) t.devices

let core t i =
  if i < 0 || i >= Array.length t.cores then invalid_arg "Machine.core: bad core id";
  t.cores.(i)

let cycles t = Cycles.read t.counter
let reset_cycles t = Cycles.reset t.counter
let examined t = Cycles.examined t.counter
