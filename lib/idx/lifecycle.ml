(* Online index build: the lifecycle driver behind CREATE INDEX ... ONLINE.

   The shape follows fdb-record-layer's online indexer.  The index shell
   is registered in the catalog *before* the build starts, so from that
   moment every mutation maintains it (Write_only).  The build then walks
   the rids that existed at start time — the watermark — in bounded
   batches, inserting each surviving row idempotently.  Rows born after
   the shell (rid >= watermark) are covered by maintenance alone, and
   rows the backfill races with are deduplicated per (key, rid) inside
   {!Rel.Index}, so when the cursor passes the watermark the tree holds
   exactly the live rows and the index can be promoted to Readable.

   Batching is the concurrency story: each {!step} is meant to run under
   the owner's exclusive lock (the server takes the db write lock per
   batch), and readers interleave between batches.  The driver record
   itself is guarded by a small internal mutex — lock rank
   [idx.lifecycle], declared in lib/srv/session.ml — so another domain
   (loadgen's build monitor, sys views) can observe {!progress} and
   {!outcome} while the builder steps.

   A unique violation discovered mid-backfill demotes the index rather
   than failing the writer: the promise CREATE INDEX ONLINE makes is
   that it never blocks or breaks foreground traffic. *)

open Rel

type outcome = Built | Demoted_build of string

(* @guarded-by idx.lifecycle *)
type t = {
  db : Database.t;
  index : Index.t;
  table : Table.t;
  watermark : Table.rid;
      (* rids >= watermark were born after the shell and are covered by
         the maintenance hooks; the backfill stops here *)
  batch : int;
  lock : Mutex.t; (* guards the mutable build bookkeeping below *)
  mutable cursor : Table.rid; (* next rid to visit *)
  mutable scanned : int;
  mutable inserted : int;
  mutable outcome : outcome option;
}

let locked t f =
  (* @acquires idx.lifecycle while srv.session db.rwlock *)
  Obs.Lockdep.with_mutex "idx.lifecycle" t.lock f

type progress = {
  p_cursor : int;
  p_watermark : int;
  p_scanned : int;
  p_inserted : int;
  p_state : Index.state;
}

exception Lifecycle_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Lifecycle_error s)) fmt

let start ?(batch = 256) db index =
  (match Index.state index with
  | Write_only -> ()
  | s ->
      error "index %s: cannot start build from state %s" (Index.name index)
        (Index.state_to_string s));
  if batch <= 0 then error "index %s: batch size must be positive"
      (Index.name index);
  let table = Database.table_exn db (Index.table_name index) in
  let watermark =
    List.fold_left (fun acc rid -> max acc (rid + 1)) 0 (Table.rids table)
  in
  Database.set_index_state db index Backfilling;
  Obs.Fault.point "idx.backfill.start";
  {
    db;
    index;
    table;
    watermark;
    batch;
    lock = Mutex.create ();
    cursor = 0;
    scanned = 0;
    inserted = 0;
    outcome = None;
  }

let demote_unlocked t reason =
  Database.set_index_state t.db t.index Demoted;
  t.outcome <- Some (Demoted_build reason)

let demote t reason = locked t (fun () -> demote_unlocked t reason)

(* One bounded batch of backfill work; call under the owner's write
   lock.  Returns [true] while more batches remain. *)
let step t =
  locked t (fun () ->
      match t.outcome with
      | Some _ -> false
      | None ->
          if t.cursor >= t.watermark then false
          else begin
            Obs.Fault.point "idx.backfill.batch";
            let stop = min t.watermark (t.cursor + t.batch) in
            (try
               while t.cursor < stop do
                 let rid = t.cursor in
                 t.cursor <- rid + 1;
                 match Table.get t.table rid with
                 | None -> () (* tombstone, or deleted since start *)
                 | Some row ->
                     t.scanned <- t.scanned + 1;
                     if Index.backfill_insert t.index rid row then
                       t.inserted <- t.inserted + 1
               done
             with Index.Unique_violation msg -> demote_unlocked t msg);
            t.outcome = None && t.cursor < t.watermark
          end)

(* Promote once the cursor has passed the watermark.  Everything below
   the watermark was backfilled, everything at or above it was
   maintained from birth, so the tree is complete. *)
let finish t =
  locked t (fun () ->
      match t.outcome with
      | Some outcome -> outcome
      | None ->
          if t.cursor < t.watermark then
            error "index %s: build finish before backfill complete (%d/%d)"
              (Index.name t.index) t.cursor t.watermark;
          Obs.Fault.point "idx.backfill.finish";
          Database.set_index_state t.db t.index Readable;
          t.outcome <- Some Built;
          Built)

(* Drive a build to completion in one call — the convenience used by the
   string-level [exec] API and by replayed scripts, where there is no
   concurrent reader to yield to. *)
let run ?batch db index =
  let t = start ?batch db index in
  while step t do
    ()
  done;
  finish t

let index t = t.index
let outcome t = locked t (fun () -> t.outcome)

let progress t =
  locked t (fun () ->
      {
        p_cursor = min t.cursor t.watermark;
        p_watermark = t.watermark;
        p_scanned = t.scanned;
        p_inserted = t.inserted;
        p_state = Index.state t.index;
      })
