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

val copy : t -> t
(** A structural copy to patch without touching the original: fresh
    functions, blocks and instructions (sharing the immutable kinds),
    copied struct and global tables, and the same next iid and register.
    The copy is laid out on first use, to the same pcs as the original. *)

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
    called after the last function is added; idempotent.  Every table is
    a plain array reused across relayouts: the iid tables, a bitset of
    block-start pcs (one bit per 4-byte pc slot from 0x1000) and a
    page-to-function array, so a relayout is O(instructions) array
    writes. *)

val generation : t -> int
(** Incremented by every actual layout rebuild (not by idempotent
    re-calls).  Structures derived from a module ({!memo}) pair the
    module's physical identity with this counter to detect stale caches
    after an edit + re-layout. *)

val invalidate_layout : t -> unit
(** Mark the whole layout stale, iid tables included, so the next lookup
    (or explicit {!layout} call) rebuilds everything.  [add_func] does
    this implicitly; so must any in-place edit that does not {!place}
    each instruction it adds or moves (removing an instruction, say). *)

val place : t -> Func.t * Block.t -> Instr.t -> unit
(** Record that an instruction now lives in the given function and block
    (it was added, moved or replaced under the same iid), keeping the iid
    tables current, and mark the pcs stale.  The {!Rewrite} mutators call
    this, so iid lookups between edits never lay the module out again;
    the next pc lookup (or {!layout}) does. *)

val memo : (t -> 'a) -> t -> 'a
(** [memo f] is [f] memoised per domain on the last module seen: it lays
    the module out, then reuses the previous result while the module is
    physically the same and its {!generation} unchanged.  [f] must be a
    pure function of the laid-out module.  Each [memo] call owns its own
    domain-local slot, so apply it once, at module initialisation. *)

val instr_by_iid : t -> int -> Instr.t
(** Raises [Not_found] for an iid no instruction carries.  Current
    between {!Rewrite} edits without a relayout, so the returned
    instruction's [pc] is only meaningful once the module is laid out. *)

val location_of_iid : t -> int -> Func.t * Block.t
(** Enclosing function and block of an instruction; same contract as
    {!instr_by_iid}. *)

val block_start_pc : t -> fname:string -> label:string -> int
(** The pc of the block's first instruction, found by walking the
    function's blocks.  Raises [Not_found] for an unknown function or
    label, or a block with no instructions (it has no pc). *)

val block_at_pc : t -> int -> Func.t * Block.t
(** Resolve a block-entry pc (as carried by TIP packets): a bit test,
    then a walk of the blocks of the function on the pc's page.  Raises
    [Not_found] unless {!is_block_start}. *)

val is_block_start : t -> int -> bool
(** [true] iff [pc] is the pc of some block's first instruction: one bit
    test.  [false] for pcs below 0x1000, unaligned pcs, padding between
    functions and pcs past the end. *)

val iter_instrs : t -> (Func.t -> Block.t -> Instr.t -> unit) -> unit
val instr_count : t -> int
(** Constant-time on a laid-out module ({!layout} counts once); folds
    over every function while the layout is stale. *)

val size_of : t -> Ty.t -> int
(** Byte size of a type under this module's struct table. *)
