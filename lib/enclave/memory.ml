type perm = { r : bool; w : bool; x : bool }

let perm_none = { r = false; w = false; x = false }
let perm_r = { r = true; w = false; x = false }
let perm_rw = { r = true; w = true; x = false }
let perm_rx = { r = true; w = false; x = true }
let perm_rwx = { r = true; w = true; x = true }

let pp_perm fmt p =
  Format.fprintf fmt "%c%c%c" (if p.r then 'r' else '-') (if p.w then 'w' else '-')
    (if p.x then 'x' else '-')

type access = Read | Write | Exec

type fault =
  | Perm_violation of { addr : int; access : access }
  | Out_of_enclave_exec of int
  | Unaligned of int

exception Fault of fault

let access_name = function Read -> "read" | Write -> "write" | Exec -> "exec"

let pp_fault fmt = function
  | Perm_violation { addr; access } ->
    Format.fprintf fmt "permission violation: %s at %#x" (access_name access) addr
  | Out_of_enclave_exec addr -> Format.fprintf fmt "execution outside ELRANGE at %#x" addr
  | Unaligned addr -> Format.fprintf fmt "unaligned access at %#x" addr

let fault_to_string f = Format.asprintf "%a" pp_fault f

type t = {
  layout : Layout.t;
  base : int;  (* = layout.base, cached for the word fast paths *)
  size : int;  (* = ELRANGE length in bytes *)
  mem : bytes;
  perms : perm array; (* one per page *)
  host : (int, int) Hashtbl.t;
  mutable leaks : (int * int) list; (* newest first *)
  mutable leak_count : int;
  mutable generation : int;
}

let page_of t addr = (addr - t.layout.Layout.base) / Layout.page_size

(* pages are 4 KiB, so a non-negative ELRANGE offset's page is a shift *)
let page_shift = 12
let () = assert (Layout.page_size = 1 lsl page_shift)

let create (layout : Layout.t) =
  let npages = Layout.total_size layout / Layout.page_size in
  let perms = Array.make npages perm_rw in
  let t =
    {
      layout;
      base = layout.Layout.base;
      size = Layout.total_size layout;
      mem = Bytes.make (Layout.total_size layout) '\x00';
      perms;
      host = Hashtbl.create 64;
      leaks = [];
      leak_count = 0;
      generation = 0;
    }
  in
  let set lo hi p =
    for page = page_of t lo to page_of t (hi - 1) do
      perms.(page) <- p
    done
  in
  let l = layout in
  set l.Layout.ssa_lo l.ssa_hi perm_rw;
  set l.tcs_lo l.tcs_hi perm_rw;
  set l.branch_lo l.branch_hi perm_r;
  set l.ss_guard_lo l.ss_lo perm_none;
  set l.ss_lo l.ss_hi perm_rw;
  set l.ss_hi l.ss_guard_hi perm_none;
  set l.consumer_lo l.consumer_hi perm_rx;
  set l.code_lo l.code_hi perm_rwx;
  set l.data_lo l.data_hi perm_rw;
  set l.stack_guard_lo l.stack_lo perm_none;
  set l.stack_lo l.stack_hi perm_rw;
  set l.stack_hi l.stack_guard_hi perm_none;
  t

let layout t = t.layout
let in_elrange t addr = addr >= t.layout.Layout.base && addr < t.layout.Layout.limit

let page_perm t addr =
  if not (in_elrange t addr) then perm_none else t.perms.(page_of t addr)

let set_region_perm t ~lo ~hi p =
  if lo mod Layout.page_size <> 0 || hi mod Layout.page_size <> 0 then
    invalid_arg "Memory.set_region_perm: not page-aligned";
  if not (in_elrange t lo && in_elrange t (hi - 1)) then
    invalid_arg "Memory.set_region_perm: outside ELRANGE";
  for page = page_of t lo to page_of t (hi - 1) do
    t.perms.(page) <- p
  done

let to_offset t addr = addr - t.layout.Layout.base

let read_u8 t addr =
  if in_elrange t addr then begin
    if not t.perms.(page_of t addr).r then raise (Fault (Perm_violation { addr; access = Read }));
    Char.code (Bytes.get t.mem (to_offset t addr))
  end
  else
    (* reading untrusted host memory is permitted (and untrustworthy) *)
    match Hashtbl.find_opt t.host addr with Some v -> v | None -> 0

let write_u8 t addr v =
  let v = v land 0xff in
  if in_elrange t addr then begin
    if not t.perms.(page_of t addr).w then raise (Fault (Perm_violation { addr; access = Write }));
    Bytes.set t.mem (to_offset t addr) (Char.chr v);
    if t.perms.(page_of t addr).x then t.generation <- t.generation + 1
  end
  else begin
    (* The store "succeeds" against host memory: this is an information
       leak, recorded as ground truth. *)
    Hashtbl.replace t.host addr v;
    t.leaks <- (addr, v) :: t.leaks;
    t.leak_count <- t.leak_count + 1
  end

let read_u64 t addr =
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (read_u8 t (addr + i)))
  done;
  !v

let write_u64 t addr v =
  for i = 0 to 7 do
    write_u8 t (addr + i) (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff)
  done

(* Word-at-a-time fast paths for the trace-compiled interpreter tier.
   Each takes the fast lane only when the byte-loop slow path above would
   succeed with identical observable effects; every other case — faults,
   host-memory leaks, and stores to executable pages (whose mutation must
   bump the code generation byte-by-byte) — is left to the byte loop, so
   fault addresses, leak logs and generation counts cannot drift. A u64
   spans at most two pages, so checking the end bytes covers the span. *)

let[@inline always] read_u64_fast t addr =
  let off = addr - t.base in
  if
    off >= 0
    && off + 8 <= t.size
    &&
    let p0 = Array.unsafe_get t.perms (off lsr page_shift)
    and p1 = Array.unsafe_get t.perms ((off + 7) lsr page_shift) in
    p0.r && p1.r
  then Bytes.get_int64_le t.mem off
  else read_u64 t addr

let write_u64_fast t addr v =
  let off = addr - t.base in
  if
    off >= 0
    && off + 8 <= t.size
    &&
    let p0 = Array.unsafe_get t.perms (off lsr page_shift)
    and p1 = Array.unsafe_get t.perms ((off + 7) lsr page_shift) in
    p0.w && p1.w && (not p0.x) && not p1.x
  then begin
    Bytes.set_int64_le t.mem off v;
    true
  end
  else false

let check_exec t addr =
  if not (in_elrange t addr) then raise (Fault (Out_of_enclave_exec addr));
  if not t.perms.(page_of t addr).x then raise (Fault (Perm_violation { addr; access = Exec }))

let priv_write_bytes t addr b =
  let len = Bytes.length b in
  if not (in_elrange t addr && in_elrange t (addr + len - 1)) then
    invalid_arg "Memory.priv_write_bytes: outside ELRANGE";
  Bytes.blit b 0 t.mem (to_offset t addr) len;
  (* like [write_u8]: only a write touching an executable page moves the
     code generation (SSA dumps and OCall input copies do not) *)
  let rec touches_x page last =
    page <= last && (t.perms.(page).x || touches_x (page + 1) last)
  in
  if len > 0 && touches_x (page_of t addr) (page_of t (addr + len - 1)) then
    t.generation <- t.generation + 1

let priv_read_bytes t addr len =
  if not (in_elrange t addr && in_elrange t (addr + len - 1)) then
    invalid_arg "Memory.priv_read_bytes: outside ELRANGE";
  Bytes.sub t.mem (to_offset t addr) len

let priv_write_u64 t addr v =
  let b = Bytes.create 8 in
  for i = 0 to 7 do
    Bytes.set b i (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff))
  done;
  priv_write_bytes t addr b

let priv_read_u64 t addr =
  let b = priv_read_bytes t addr 8 in
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code (Bytes.get b i)))
  done;
  !v

let host_read_u8 t addr = match Hashtbl.find_opt t.host addr with Some v -> v | None -> 0
let leaked_bytes t = t.leak_count
let leak_log t = List.rev t.leaks
let code_generation t = t.generation
let code_bytes t = t.mem
