(* In-memory spans for the traced replay.

   A span records its name, start and end (monotonic ns), the span that
   caused it and the request it belongs to.  Spans live in a growable
   array until the run ends, then go out as one TSV file.  A recorder
   made with [~enabled:false] runs every wrapped call without recording,
   which is how the replay measures its own tracing overhead. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  req : int;
  name : string;
  start_ns : int64;
  stop_ns : int64;
}

type t = {
  enabled : bool;
  mutable spans : span array;
  mutable n : int;
  mutable stack : int list;  (** open spans, innermost first *)
}

let now_ns () = Monotonic_clock.now ()

let dummy =
  { id = -1; parent = -1; req = -1; name = ""; start_ns = 0L; stop_ns = 0L }

let create ~enabled () =
  { enabled; spans = Array.make (if enabled then 4096 else 1) dummy; n = 0;
    stack = [] }

let reserve t =
  if t.n = Array.length t.spans then begin
    let a = Array.make (2 * t.n) dummy in
    Array.blit t.spans 0 a 0 t.n;
    t.spans <- a
  end;
  let id = t.n in
  t.n <- t.n + 1;
  id

(* Run [f] inside a span named [name], child of the innermost open span. *)
let with_span t ~req name f =
  if not t.enabled then f ()
  else begin
    let id = reserve t in
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let close start_ns =
      let stop_ns = now_ns () in
      t.stack <- List.tl t.stack;
      t.spans.(id) <- { id; parent; req; name; start_ns; stop_ns }
    in
    let start_ns = now_ns () in
    match f () with
    | v ->
        close start_ns;
        v
    | exception e ->
        close start_ns;
        raise e
  end

let spans t = Array.sub t.spans 0 t.n

let duration_ns s = Int64.to_float (Int64.sub s.stop_ns s.start_ns)

(* Self time: a span's duration minus the part of its interval that its
   children's intervals cover (overlapping children count once, parts of
   a child outside the parent count not at all).  Indexed like
   [spans], whose ids must equal their positions. *)
let self_times (spans : span array) =
  let children = Array.make (Array.length spans) [] in
  Array.iter
    (fun s -> if s.parent >= 0 then children.(s.parent) <- s :: children.(s.parent))
    spans;
  Array.map
    (fun p ->
      let kids =
        List.sort (fun a b -> Int64.compare a.start_ns b.start_ns) children.(p.id)
      in
      (* sweep the children in start order, merging overlaps, clipped to
         the parent's own interval *)
      let covered, _ =
        List.fold_left
          (fun (covered, reach) c ->
            let lo = Int64.max c.start_ns reach in
            let hi = Int64.min c.stop_ns p.stop_ns in
            if Int64.compare hi lo > 0 then
              (Int64.add covered (Int64.sub hi lo), hi)
            else (covered, reach))
          (0L, p.start_ns) kids
      in
      duration_ns p -. Int64.to_float covered)
    spans

let write_tsv path spans =
  let oc = open_out path in
  output_string oc "id\tparent\treq\tname\tstart_ns\tstop_ns\n";
  Array.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%Ld\t%Ld\n" s.id s.parent s.req s.name
        s.start_ns s.stop_ns)
    spans;
  close_out oc
