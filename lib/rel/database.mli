(** The database catalog: tables, secondary indexes, integrity
    constraints, and a mutation-log hook.

    All data modification goes through this module so that (a) enforced
    constraints are checked, (b) indexes stay consistent, and (c)
    mutation listeners — the soft-constraint maintenance machinery of
    {!Core} — see every change.  Informational constraints are stored but
    never checked, exactly as in the paper (§1). *)

type mutation =
  | Inserted of { table : string; rid : Table.rid; row : Tuple.t }
  | Deleted of { table : string; rid : Table.rid; row : Tuple.t }
  | Updated of {
      table : string;
      rid : Table.rid;
      before : Tuple.t;
      after : Tuple.t;
    }

type t

exception Catalog_error of string

val create : unit -> t

(** {1 Tables} *)

val create_table : t -> Schema.t -> Table.t

val find_table : t -> string -> Table.t option
(** Base tables are returned as stored; a registered virtual table is
    materialized afresh from its generator on every lookup. *)

val table_exn : t -> string -> Table.t

val table_names : t -> string list
(** Base tables only; see {!virtual_names}. *)

(** {1 Virtual tables}

    A virtual table is a (schema, row generator) pair — nothing is
    stored.  [find_table] materializes it on demand, which makes the
    sys.* observability views plain SQL citizens.  Virtual tables are
    read-only: mutations through this module raise {!Catalog_error}. *)

val register_virtual :
  t -> name:string -> schema:Schema.t -> (unit -> Tuple.t list) -> unit
(** Registering under an existing virtual name replaces its generator;
    registering over a base table raises {!Catalog_error}. *)

val virtual_names : t -> string list

val drop_table : t -> string -> unit
(** Also drops the table's indexes and constraints. *)

(** {1 Indexes} *)

val create_index :
  t -> name:string -> table:string -> columns:string list -> ?unique:bool ->
  unit -> Index.t

val create_index_shell :
  t -> name:string -> table:string -> columns:string list -> ?unique:bool ->
  unit -> Index.t
(** An empty [Write_only] index registered in the catalog immediately, so
    every mutation from this moment on maintains it; the online backfill
    ({!Idx.Lifecycle}) covers the pre-existing rows. *)

val find_index_by_name : t -> string -> Index.t option

val all_indexes : t -> Index.t list
(** Every index in the catalog, sorted by name. *)

val on_index_state : t -> (Index.t -> unit) -> unit
(** Register a listener invoked after every index lifecycle transition
    made through {!set_index_state} — the WAL link logs these. *)

val set_index_state : t -> Index.t -> Index.state -> unit
(** Transition an index's lifecycle state and notify the listeners
    (no-op when the state is unchanged). *)

val rebuild_index : t -> string -> Index.t
(** Discard and rebuild an index from the current heap contents; the
    result is readable and consistent by construction.  Raises
    {!Catalog_error} when no such index exists. *)

val drop_index : t -> string -> unit
val indexes_on : t -> string -> Index.t list

val find_index_on : t -> string -> string list -> Index.t option
(** An index whose key columns are exactly these, in order. *)

val find_index_on_column : t -> string -> string -> Index.t option
(** A single-column index on this column (access-path selection). *)

(** {1 Partitioning}

    A table may carry one horizontal partitioning ({!Partition}).  The
    heap stays single — rids, indexes and existing scans are untouched —
    while the mutation paths below keep per-segment rid membership,
    row counts, and partition-local mutation counters exact (including
    updates that move a row between segments, and rid-faithful replay). *)

val declare_partitioning : t -> table:string -> Partition.spec -> Partition.t
(** Routes every existing row into its segment and installs the
    bookkeeping.  Raises {!Catalog_error} on a virtual table, an already
    partitioned table, or an invalid spec. *)

val partitioning : t -> string -> Partition.t option

val partitioned_tables : t -> string list
(** Normalized names of partitioned base tables, sorted. *)

(** {1 Constraints} *)

val checker_env : t -> Checker.env

val add_constraint : t -> Icdef.t -> unit
(** Adding an {e enforced} constraint validates the current data first
    (raises {!Catalog_error} on violation); informational constraints are
    taken on faith — the paper's external promise. *)

val drop_constraint : t -> string -> unit
val constraints : t -> Icdef.t list
val constraints_on : t -> string -> Icdef.t list
val find_constraint : t -> string -> Icdef.t option

(** {1 Mutation listeners} *)

val on_mutation : t -> (mutation -> unit) -> unit
(** Register a listener invoked after every successful mutation. *)

(** {1 Data modification}

    Each operation checks the enforced constraints (raising
    {!Checker.Constraint_violation}), maintains every index, and notifies
    the listeners. *)

val insert : t -> table:string -> Tuple.t -> Table.rid
val delete : t -> table:string -> Table.rid -> bool
val update : t -> table:string -> Table.rid -> Tuple.t -> unit
val insert_many : t -> table:string -> Tuple.t list -> Table.rid list

val restore : t -> table:string -> Table.rid -> Tuple.t -> unit
(** Compensating re-insert for transaction rollback: the original rid is
    re-occupied, indexes are maintained and listeners notified, but
    constraint checking is skipped (intermediate undo states may be
    transiently inconsistent). *)

(** {1 Log replay}

    Used by {!Core.Recovery} to apply committed WAL records to a fresh
    database.  The mutations already passed constraint checking when
    first executed, and listener side effects are themselves in the log,
    so these bypass both checks and listeners — only storage and indexes
    are maintained.  Inserts are rid-faithful ({!Table.place}). *)

val replay_insert : t -> table:string -> Table.rid -> Tuple.t -> unit
val replay_delete : t -> table:string -> Table.rid -> unit
val replay_update : t -> table:string -> Table.rid -> Tuple.t -> unit

val pp : Format.formatter -> t -> unit
