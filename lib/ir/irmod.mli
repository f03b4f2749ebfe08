(** An LIR module: the unit of compilation the server-side analysis sees
    (the analogue of the stripped binary plus its LLVM bitcode in §5).

    Besides struct/global/function tables, a module owns the id and program
    counter spaces: every instruction has a module-unique [iid], and
    {!layout} assigns each a synthetic [pc].  The PT-model tracer emits pcs;
    the decoder and the failure-report path map them back to instructions
    with the lookup functions here. *)

type t

val create : string -> t
val name : t -> string

(** {2 Structs and globals} *)

val declare_struct : t -> string -> Ty.t list -> Ty.t
(** Registers the field list and returns [Ty.Struct name].  Redeclaration
    raises [Invalid_argument]. *)

val struct_fields : t -> string -> Ty.t list
(** Raises [Not_found] on unknown structs. *)

val declare_global : t -> string -> Ty.t -> unit
(** A zero-initialized module global of the given type. *)

val global_ty : t -> string -> Ty.t
val iter_globals : t -> (string -> Ty.t -> unit) -> unit

(** {2 Functions} *)

val add_func : t -> Func.t -> unit
val find_func : t -> string -> Func.t
(** Raises [Not_found] on unknown names. *)

val has_func : t -> string -> bool
val funcs : t -> Func.t list

(** {2 Id and register supply} *)

val fresh_iid : t -> int
val fresh_reg : t -> name:string -> ty:Ty.t -> Value.reg

(** {2 Layout and lookup} *)

val layout : t -> unit
(** Assigns pcs to all instructions and builds the lookup tables.  Must be
    called after the last function is added; idempotent. *)

val generation : t -> int
(** Incremented by every actual layout rebuild (not by idempotent
    re-calls).  Structures derived from a module ({!memo}) pair the
    module's physical identity with this counter to detect stale caches
    after [add_func] + re-layout. *)

val invalidate_layout : t -> unit
(** Mark the current layout stale so the next lookup (or explicit
    {!layout} call) rebuilds pcs and tables.  [add_func] does this
    implicitly; in-place rewrites of existing blocks (see {!Rewrite})
    must call it explicitly — the pcs shift and the iid/pc tables must
    pick up spliced instructions. *)

val memo : (t -> 'a) -> t -> 'a
(** [memo f] is [f] memoised per domain on the last module seen: it lays
    the module out, then reuses the previous result while the module is
    physically the same and its {!generation} unchanged.  [f] must be a
    pure function of the laid-out module.  Each [memo] call owns its own
    domain-local slot, so apply it once, at module initialisation. *)

val instr_by_iid : t -> int -> Instr.t
val block_start_pc : t -> fname:string -> label:string -> int
val block_at_pc : t -> int -> Func.t * Block.t
(** Resolve a block-entry pc (as carried by TIP packets). *)

val is_block_start : t -> int -> bool
(** [true] iff [pc] is the first pc of some block — {!block_at_pc}
    without the exception. *)

val location_of_iid : t -> int -> Func.t * Block.t
(** Enclosing function and block of an instruction. *)

val iter_instrs : t -> (Func.t -> Block.t -> Instr.t -> unit) -> unit
val instr_count : t -> int
(** Constant-time on a laid-out module ({!layout} counts once); folds
    over every function while the layout is stale. *)

val size_of : t -> Ty.t -> int
(** Byte size of a type under this module's struct table. *)
