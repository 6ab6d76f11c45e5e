(* The scatter-batch protocol: a fixed array of subtasks, each executed
   exactly once by whoever claims it — a pool worker that picked up a
   helper job, or the submitting domain stealing work while it waits.

   Claims are handed out through a cursor under the batch mutex, so a
   subtask can never run twice; outcomes are recorded per index and the
   last finisher broadcasts the latch.  The submitter's protocol
   ([drain] then [wait]) is deadlock-free under pool saturation by
   construction: once [drain] returns, every subtask has been *claimed*,
   and the only claims the submitter can be waiting on are subtasks
   actively running on other domains — helper jobs that expired or were
   never scheduled simply found nothing left to claim.

   The mutex is only ever held for cursor/outcome bookkeeping, never
   while a subtask runs. *)

(* @guarded-by srv.scatter.batch *)
type t = {
  tasks : (unit -> unit) array;
  outcomes : exn option array;
  mutable cursor : int; (* next unclaimed index *)
  mutable unfinished : int;
  m : Mutex.t;
  finished : Condition.t;
}

let create tasks =
  {
    tasks;
    outcomes = Array.make (Array.length tasks) None;
    cursor = 0;
    unfinished = Array.length tasks;
    m = Mutex.create ();
    finished = Condition.create ();
  }

let size t = Array.length t.tasks

let locked t f =
  (* @acquires srv.scatter.batch while srv.session db.rwlock *)
  Obs.Lockdep.with_mutex "srv.scatter.batch" t.m f

let claim t =
  locked t (fun () ->
      if t.cursor >= Array.length t.tasks then None
      else begin
        let i = t.cursor in
        t.cursor <- i + 1;
        Some i
      end)

let run t i =
  let outcome = try t.tasks.(i) (); None with e -> Some e in
  locked t (fun () ->
      t.outcomes.(i) <- outcome;
      t.unfinished <- t.unfinished - 1;
      if t.unfinished = 0 then Condition.broadcast t.finished)

(* claim-and-run until no subtask is unclaimed *)
let drain t =
  let rec go () =
    match claim t with
    | Some i ->
        run t i;
        go ()
    | None -> ()
  in
  go ()

let wait t =
  locked t (fun () ->
      while t.unfinished > 0 do
        (* @waits srv.scatter.batch *)
        Condition.wait t.finished t.m
      done);
  Array.copy t.outcomes
