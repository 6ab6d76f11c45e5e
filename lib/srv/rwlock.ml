(* The single-writer rule, as a lock.

   Read-only queries fan out across the worker pool under a shared read
   lock; anything that mutates shared engine state — data, schema, the
   SC catalog, WAL appends — runs under the exclusive write lock, so
   every mutation and every WAL record stays serialized exactly as in
   the single-threaded engine.

   The write side is *owned by a session*, not by a thread or domain: a
   transaction holds the write lock from BEGIN to COMMIT/ROLLBACK, and
   the statements inside it arrive as separate jobs, possibly on
   different worker domains.  Ownership makes those nested acquisitions
   reentrant (depth-counted), and lets a session's reads inside its own
   transaction proceed under the exclusivity it already holds.

   Acquisition is deadline-bounded by polling (the stdlib Condition has
   no timed wait): waiters sleep ~1ms between attempts, which is noise
   next to query execution and keeps the implementation obviously
   correct.  Writers take priority — a waiting writer blocks new readers
   — so a transaction cannot be starved by a stream of reads. *)

(* @guarded-by srv.rwlock.state *)
type t = {
  m : Mutex.t;
  mutable readers : int;
  mutable writer : int option; (* owning session *)
  mutable writer_depth : int;
  mutable writers_waiting : int;
}

let create () =
  {
    m = Mutex.create ();
    readers = 0;
    writer = None;
    writer_depth = 0;
    writers_waiting = 0;
  }

let locked t f =
  (* the short internal state mutex; callers hold the session mutex and
     may logically hold the rwlock itself (reentrant re-acquire paths) *)
  (* @acquires srv.rwlock.state while srv.session db.rwlock *)
  Obs.Lockdep.with_mutex "srv.rwlock.state" t.m f

let poll_interval_s = 0.001

let holds_write t ~session =
  locked t (fun () -> t.writer = Some session)

(* Poll [try_once] until it succeeds or the deadline passes.  [deadline]
   is an absolute Unix time; [None] waits indefinitely. *)
let rec wait_for ?deadline try_once =
  if try_once () then true
  else if
    match deadline with
    | Some d -> Unix.gettimeofday () > d
    | None -> false
  then false
  else begin
    Unix.sleepf poll_interval_s;
    wait_for ?deadline try_once
  end

let acquire_read ?deadline t ~session =
  let try_once () =
    locked t (fun () ->
        if t.writer = Some session then true (* covered by own exclusivity *)
        else if t.writer = None && t.writers_waiting = 0 then begin
          t.readers <- t.readers + 1;
          true
        end
        else false)
  in
  wait_for ?deadline try_once

let release_read t ~session =
  locked t (fun () ->
      (* a read inside the session's own write section took no shared
         count, so there is nothing to give back *)
      if t.writer <> Some session then
        t.readers <- max 0 (t.readers - 1))

let acquire_write ?deadline t ~session =
  let registered = ref false in
  let try_once () =
    locked t (fun () ->
        if t.writer = Some session then begin
          t.writer_depth <- t.writer_depth + 1;
          true
        end
        else if t.writer = None && t.readers = 0 then begin
          t.writer <- Some session;
          t.writer_depth <- 1;
          true
        end
        else begin
          if not !registered then begin
            registered := true;
            t.writers_waiting <- t.writers_waiting + 1
          end;
          false
        end)
  in
  let ok = wait_for ?deadline try_once in
  if !registered then
    locked t (fun () -> t.writers_waiting <- t.writers_waiting - 1);
  ok

let release_write t ~session =
  locked t (fun () ->
      if t.writer = Some session then begin
        t.writer_depth <- t.writer_depth - 1;
        if t.writer_depth <= 0 then begin
          t.writer <- None;
          t.writer_depth <- 0
        end
      end)

(* Drop the session's write ownership entirely, whatever the depth — the
   session-teardown path, where a crashed transaction must not leave the
   engine wedged. *)
let forfeit_write t ~session =
  locked t (fun () ->
      if t.writer = Some session then begin
        t.writer <- None;
        t.writer_depth <- 0
      end)

(* The balanced wrappers are the lockdep instrumentation points: acquire
   and release happen on one thread, so the per-thread witness stack
   stays sound.  Reentrant by declaration — a session's reads inside its
   own write section re-enter by design.  The unbalanced BEGIN..COMMIT
   path (Session.begin_txn) records itself with Lockdep.pulse instead. *)

let read_locked ?deadline t ~session f =
  if acquire_read ?deadline t ~session then begin
    Obs.Lockdep.acquire ~reentrant:true "db.rwlock";
    Fun.protect
      ~finally:(fun () ->
        release_read t ~session;
        Obs.Lockdep.release "db.rwlock")
      f
    |> Option.some
  end
  else None

let write_locked ?deadline t ~session f =
  if acquire_write ?deadline t ~session then begin
    Obs.Lockdep.acquire ~reentrant:true "db.rwlock";
    Fun.protect
      ~finally:(fun () ->
        release_write t ~session;
        Obs.Lockdep.release "db.rwlock")
      f
    |> Option.some
  end
  else None
