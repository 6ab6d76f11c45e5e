(* A bounded in-memory log of executed queries: estimated vs. actual
   cardinality, q-error, which rewrite rules fired, and what each twinned
   SSC predicted vs. what the scan actually observed.  Feeds the
   sys.query_log virtual table and the recalibration loop. *)

type twin_observation = {
  sc : string;
  stored : float; (* confidence used during optimization *)
  observed : float; (* measured coverage after execution *)
  adjusted : float option; (* new confidence, when recalibrated *)
}

type entry = {
  seq : int;
  sql : string;
  estimated_rows : float;
  actual_rows : int;
  q_error : float;
  rewrites : string list; (* rule names that fired *)
  twins : twin_observation list;
  fell_back : bool; (* executed the guard-fallback (rewrite-free) plan *)
}

(* Sequence allocation and the entry list are guarded by one mutex: the
   log is shared across the server's worker domains, and two queries
   finishing simultaneously must still get distinct, dense seq numbers. *)
(* @guarded-by obs.query_log *)
type t = {
  capacity : int;
  lock : Mutex.t;
  mutable next_seq : int;
  mutable entries : entry list; (* newest first *)
}

let create ?(capacity = 256) () =
  { capacity; lock = Mutex.create (); next_seq = 1; entries = [] }

let locked t f =
  (* leaf lock, like obs.metrics *)
  (* @acquires obs.query_log while srv.session db.rwlock *)
  Lockdep.with_mutex "obs.query_log" t.lock f

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: tl -> x :: take (n - 1) tl

let add ?(fell_back = false) t ~sql ~estimated_rows ~actual_rows ~rewrites
    ~twins =
  locked t (fun () ->
      let entry =
        {
          seq = t.next_seq;
          sql;
          estimated_rows;
          actual_rows;
          q_error =
            Feedback.q_error ~estimated:estimated_rows ~actual:actual_rows;
          rewrites;
          twins;
          fell_back;
        }
      in
      t.next_seq <- t.next_seq + 1;
      t.entries <- take t.capacity (entry :: t.entries);
      entry)

(* oldest-first *)
let entries t = locked t (fun () -> List.rev t.entries)
let length t = locked t (fun () -> List.length t.entries)

let last t =
  locked t (fun () -> match t.entries with [] -> None | e :: _ -> Some e)

let clear t = locked t (fun () -> t.entries <- [])

let mean_q_error t =
  locked t (fun () ->
      match t.entries with
      | [] -> 1.0
      | es ->
          List.fold_left (fun acc e -> acc +. e.q_error) 0.0 es
          /. float_of_int (List.length es))

let worst_q_error t =
  locked t (fun () ->
      List.fold_left (fun acc e -> Float.max acc e.q_error) 1.0 t.entries)

let pp_entry ppf e =
  Fmt.pf ppf "#%d est=%.1f actual=%d q=%.2f%s %s" e.seq e.estimated_rows
    e.actual_rows e.q_error
    (match e.rewrites with
    | [] -> ""
    | rs -> Fmt.str " [%s]" (String.concat "," rs))
    (if e.fell_back then "(fallback) " ^ e.sql else e.sql)
