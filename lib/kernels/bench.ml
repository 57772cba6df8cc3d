open Sfi_util
open Sfi_sim

type t = {
  name : string;
  bench_type : string;
  compute_rating : string;
  control_rating : string;
  size_desc : string;
  program : Sfi_isa.Program.t;
  mem_size : int;
  output_addr : int;
  output_count : int;
  golden : U32.t array;
  metric_name : string;
  metric : expected:U32.t array -> actual:U32.t array -> float;
}

let fresh_memory t =
  let mem = Memory.create ~size:t.mem_size in
  Memory.load_program mem t.program;
  mem

let read_output t mem = Memory.read_u32_array mem ~addr:t.output_addr ~count:t.output_count

let run_fault_free ?(max_cycles = 50_000_000) t =
  let mem = fresh_memory t in
  let config = { Cpu.default_config with Cpu.max_cycles } in
  let stats = Cpu.run ~config mem ~entry:t.program.Sfi_isa.Program.entry in
  (stats, read_output t mem)

let add_fingerprint t fp =
  let open Sfi_cache.Fingerprint in
  add_int fp t.mem_size;
  add_int fp t.program.Sfi_isa.Program.entry;
  add_int fp t.program.Sfi_isa.Program.limit;
  Array.iter
    (fun (addr, v) ->
      add_int fp addr;
      add_int fp v)
    t.program.Sfi_isa.Program.words;
  add_int fp Cpu.branch_penalty;
  add_int fp Cpu.load_use_penalty

let validate t =
  let stats, out = run_fault_free t in
  (match stats.Cpu.outcome with
  | Cpu.Exited -> ()
  | Cpu.Watchdog -> failwith (t.name ^ ": fault-free run hit the watchdog")
  | Cpu.Trapped msg -> failwith (t.name ^ ": fault-free run trapped: " ^ msg));
  if out <> t.golden then failwith (t.name ^ ": fault-free output differs from golden");
  stats

let format_word_data values =
  let buf = Buffer.create (Array.length values * 12) in
  Array.iteri
    (fun i v ->
      if i mod 8 = 0 then begin
        if i > 0 then Buffer.add_char buf '\n';
        Buffer.add_string buf "        .word "
      end
      else Buffer.add_string buf ", ";
      Buffer.add_string buf (Printf.sprintf "0x%s" (U32.to_hex v)))
    values;
  Buffer.add_char buf '\n';
  Buffer.contents buf
