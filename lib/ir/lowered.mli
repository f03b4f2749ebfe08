(** The run image of a module: everything an execution needs that does
    not depend on the execution, resolved once per module layout.

    Each instruction becomes an {!op} whose operands are dense
    per-function register slots or constants, whose branch targets are
    block indices, whose callees are function indices and intrinsic
    codes, and whose access sizes and field offsets are precomputed, so
    a run neither builds lookup tables nor walks types, names or
    hashtables per step.

    Lowering is total.  An instruction that cannot be resolved (a GEP
    through a non-struct pointer, a call to an unknown function, an
    operand naming an unknown global) lowers to a form that raises, when
    and only when it executes, the exception that evaluating the IR
    instruction itself raises at that point. *)

type operand =
  | Slot of int * string
      (** register slot in the enclosing function's frame, with the
          register's name for undefined-read reports *)
  | Const of int  (** immediates, null, and resolved function addresses *)
  | Global of int  (** index into {!globals} *)
  | Raise of exn  (** evaluating the operand raises this *)

type intrinsic =
  | Malloc
  | Free
  | Mutex_init
  | Mutex_lock
  | Mutex_unlock
  | Cond_init
  | Cond_wait
  | Cond_signal
  | Cond_broadcast
  | Thread_create
  | Thread_join
  | Work
  | Io_delay
  | Assert_true
  | Print_i64
  | Rand

type op =
  | Alloca of { dst : int; size : int }
  | Load of { dst : int; ptr : operand; size : int }
      (** [size]: the pointee's byte size, 8 when it has none *)
  | Store of { value : operand; ptr : operand; size : int }
  | Binop of { dst : int; op : Instr.binop; lhs : operand; rhs : operand }
  | Icmp of { dst : int; cmp : Instr.icmp; lhs : operand; rhs : operand }
  | Gep of { dst : int; base : operand; offset : int }
      (** [offset]: byte offset of the field within its struct *)
  | Index of { dst : int; base : operand; idx : operand; esize : int }
  | Cast of { dst : int; src : operand }
  | Intrinsic of { dst : int; code : intrinsic; args : operand array }
      (** [dst] is [-1] when the result is discarded *)
  | Call of { dst : int; callee : int; args : operand array }
      (** [callee] indexes {!funcs}; [dst] is [-1] when discarded *)
  | Br of int  (** target block index; [-1] for an unknown label *)
  | Cond_br of { cond : operand; then_ : int; else_ : int }
  | Ret of operand option
  | Unreachable
  | Malformed of exn
      (** an [Alloca], [Gep], [Index] or [Call] whose static resolution
          failed: executing it raises the exception (after the
          instruction's base cost is charged, as before lowering) *)

type instr = { src : Instr.t; op : op }

type body = {
  blocks : instr array array;  (** in block order; entry block first *)
  params : int array;  (** parameter slots, in order *)
  slots : int;  (** register slots a frame needs *)
}

type func = private {
  fn : Func.t;
  entry_pc : int;  (** [-1] for a body-less function *)
  mutable lowered : body option;  (** filled by {!body} on first use *)
}

type t
(** The image of one module.  Function bodies are lowered on first entry:
    an execution touches a few percent of a module's code, so lowering
    the rest up front would cost more than the runs it serves. *)

val of_module : Irmod.t -> t
(** The module's image, laying it out first if needed.  Built once per
    (module identity, layout generation) and kept in a domain-local
    one-entry cache ({!Irmod.memo}), so repeated runs of one module
    share it; an image must not cross domains.  The module must not be mutated without
    {!Irmod.invalidate_layout}. *)

val funcs : t -> func array
(** In module order; [Call] callees index this array. *)

val body : t -> func -> body
(** The function's lowered body, lowering it on first use.  A body-less
    function has no blocks. *)

val globals : t -> string array
(** The module's globals; [Global] operands index this array. *)

val find_func : t -> string -> func
(** By name, resolving duplicates as {!Irmod.find_func} does.  Raises
    [Not_found]. *)

val func_at_entry_pc : t -> int -> func option
(** The function whose entry block starts at the pc. *)
