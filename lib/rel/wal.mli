(** Write-ahead logging for durability.

    The engine is in-memory; durability comes from logging every data
    mutation and every soft-constraint catalog transition, framed by
    begin/commit/abort records, and replaying the committed frames into a
    fresh database after a crash ({!Core.Recovery}).  Two sinks:

    - a {e memory} sink (fsync-free, for tests and the fault matrix),
      where a record is durable the moment it is appended;
    - a {e file} sink (for the CLI's [--wal]), line-oriented text,
      buffered between commits and flushed by {!commit} / {!abort} /
      {!flush}.

    The log is {e redo-only}: uncommitted frames are simply skipped at
    replay, so no undo information beyond the update before-image (kept
    for debugging and consistency checks) is required.

    This module knows nothing about fault injection, but named fault
    points ({!fault_points}) are threaded through its hot paths via a
    hook that {!Obs.Fault} installs — [rel] sits below [obs] in the
    library stack, so the dependency is inverted through
    {!set_fault_hook}. *)

type sc_snapshot = {
  sc_name : string;
  sc_table : string;
  sc_absolute : bool;  (** ASC vs. SSC *)
  sc_confidence : float;  (** 1.0 for ASCs *)
  sc_state : string;  (** probation / active / violated / dropped *)
  sc_anchor : int;  (** installed_at_mutations, the currency anchor *)
  sc_violations : int;
  sc_repr : string;  (** serialized statement, see {!Core.Sc_codec} *)
}
(** A full image of one soft constraint, as installed programmatically or
    dumped by a checkpoint.  The statement representation is an opaque
    string at this layer; {!Core.Sc_codec} owns the round-trip. *)

(** A soft-constraint catalog transition.  Field-level deltas reference
    the constraint by name; {!Sc_installed} carries the full image. *)
type sc_change =
  | Sc_installed of sc_snapshot
  | Sc_state of { name : string; state : string }
  | Sc_kind of { name : string; absolute : bool; confidence : float }
  | Sc_anchor of { name : string; anchor : int }
  | Sc_violations of { name : string; count : int }
  | Sc_statement of { name : string; repr : string }
  | Sc_dropped of { name : string }
  | Sc_exception of { name : string; table : string }

(** A log record.  Data records address a row by its table and rid;
    replay applies them in log order, and inserts are rid-faithful, so a
    partitioned table's segment membership is re-derived by routing each
    replayed row — the log itself is partition-agnostic.  Logs written
    before this layout tagged partitioned data records with one trailing
    segment number; the reader accepts and discards it. *)
type record =
  | Begin of { txn : int }
  | Commit of { txn : int }
  | Abort of { txn : int }
  | Insert of {
      txn : int;
      table : string;
      rid : Table.rid;
      row : Value.t array;
    }
  | Delete of {
      txn : int;
      table : string;
      rid : Table.rid;
      row : Value.t array;
    }
  | Update of {
      txn : int;
      table : string;
      rid : Table.rid;
      before : Value.t array;
      after : Value.t array;
    }
  | Ddl of { txn : int; sql : string }
      (** A schema statement, logged as its printed SQL and re-executed
          deterministically at replay. *)
  | Sc of { txn : int; change : sc_change }
  | Idx_state of { txn : int; name : string; state : string }
      (** An index lifecycle transition
          ([write_only]/[backfilling]/[readable]/[demoted], see
          {!Index.state}).  Replay re-derives index consistency from
          these: a committed [readable] transition rebuilds the index
          from the recovered heap; an index left mid-backfill when the
          log ends is demoted to write-only. *)

type t

exception Wal_error of string
(** Corrupt log lines, closed-log appends, and file-sink I/O errors. *)

val create_memory : unit -> t

val open_file : string -> t
(** Open (creating if absent) a file-sink log in append mode.  Existing
    records are scanned to continue the transaction numbering. *)

val path : t -> string option
(** [None] for the memory sink. *)

val close : t -> unit

val fresh_txn : t -> int
(** Allocate the next transaction id. *)

val append : t -> record -> unit
(** Fault points: [wal.append] (both sinks), [wal.io] (file sink, before
    the physical write). *)

val commit : t -> int -> unit
(** Append the commit record and flush.  Fault points: [wal.pre_commit]
    (before the record — the frame is lost on crash) and
    [wal.post_commit] (after the flush — the frame is durable). *)

val abort : t -> int -> unit
(** Append the abort record and flush. *)

val flush : t -> unit

val records : t -> record list
(** Every record, oldest first (file sinks are flushed and re-read). *)

val load_file : string -> record list
(** Read a log file without opening it as a sink; [[]] if absent.
    Strict: raises {!Wal_error} on the first corrupt line — the
    salvage-aware path is {!scan_file} + {!Core.Recovery}. *)

val truncate_with : t -> record list -> unit
(** Atomically replace the log's contents — the checkpoint primitive.
    The file sink writes a sibling [.ckpt] file and renames it over the
    log, so a crash during checkpoint ([wal.checkpoint] fires before the
    rename) leaves the original log intact.  Transaction numbering
    restarts above the ids present in [records]. *)

val committed_txns : record list -> int -> bool
(** Membership test of the transactions with a {!Commit} record. *)

val txn_of : record -> int

val record_to_line : record -> string
(** One line, no trailing newline; the {e v1} (headerless) payload
    format.  The file sink wraps it in the v2 integrity header — see
    {!line_of_record}. *)

val record_of_line : string -> record
(** Parse a v1 payload.  Raises {!Wal_error} on corrupt input. *)

(** {1 Format v2: LSN + CRC32}

    Every line the file sink writes carries an integrity header:

    {v L<lsn> \t <crc32-hex8> \t <v1 payload> v}

    The LSN increases by one per line within a file (a checkpoint
    rewrites the file and restarts at 1) and the CRC-32 covers
    ["<lsn>\t<payload>"], so torn, bit-flipped or spliced lines are
    detected rather than misparsed.  The head field [L<digits>] cannot
    collide with a v1 head tag, so v1 logs remain readable. *)

val line_of_record : lsn:int -> record -> string
(** The v2 encoding, no trailing newline. *)

val parse_line : string -> (int option * record, string) result
(** Parse one line of either version: [Some lsn] for v2 (checksum
    verified), [None] for v1.  [Error reason] instead of an exception —
    the salvage path classifies corrupt lines, it does not die on
    them. *)

type scanned = {
  lineno : int;  (** 1-based; blank lines counted but not reported *)
  offset : int;  (** byte offset of the line start *)
  bytes : int;  (** line length including the newline, if present *)
  lsn : int option;  (** [None] for v1 and unparsable lines *)
  parsed : (record, string) result;
}
(** One physical log line with enough location information to truncate
    a torn tail byte-exactly. *)

val scan_string : string -> scanned list
(** Classify every non-blank line of a raw log image, never raising. *)

val scan_file : string -> string * scanned list
(** Read the file raw (binary, [""] if absent) and {!scan_string} it;
    returns the raw bytes alongside so salvage can quarantine them. *)

(** {1 Text codec}

    The log's field-level codec, exported for other line-oriented framed
    formats that need the same exact round-trip guarantees (the server
    wire protocol, {!Srv.Proto}): strings backslash-escaped so a field
    never contains a literal tab or newline, floats printed in hex. *)

val escape : string -> string
val unescape : string -> string
(** [unescape] raises {!Wal_error} on a malformed escape. *)

val value_to_field : Value.t -> string

val value_of_field : string -> Value.t
(** Raises {!Wal_error} on corrupt input. *)

val set_fault_hook : (string -> unit) -> unit
(** Install the fault-injection callback invoked at each named point
    (see {!Obs.Fault}); the default is a no-op. *)

val set_write_hook :
  (point:string -> write:(string -> unit) -> string -> unit) -> unit
(** Install the physical-write indirection: every byte string the file
    sink emits passes through the hook (with the fault-point name of
    the site: [wal.io] for appends, [wal.checkpoint] for the checkpoint
    rewrite), which may write it whole, truncated ([Torn_write]), or
    corrupted ([Bit_flip]) via the supplied [write].  The default
    writes the string unchanged.  The memory sink is durable-at-append
    and bypasses the hook. *)

val fault_points : string list
(** The named fault points this module fires, for harness registration:
    [wal.append], [wal.io], [wal.pre_commit], [wal.post_commit],
    [wal.checkpoint]. *)

val pp_record : Format.formatter -> record -> unit
