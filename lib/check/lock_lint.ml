(* Static lock-order analysis.

   The locking discipline is declared, not inferred: a canonical
   [@lock-order <name> rank=<int> [reentrant]] table (lib/srv/session.ml)
   assigns every lock a rank, and each acquisition site carries an
   annotation on its own line or at most three lines above the
   acquiring call (grammar in {!Ann}).

   The lint scans for the raw acquisition tokens (Mutex.lock,
   Condition.wait, the Rwlock entry points, and the witnessed-mutex
   helper {!Obs.Lockdep.with_mutex}) and fails on:
   - an acquisition token with no annotation in range;
   - a reference to an undeclared lock (acquired, waited-on, or named
     in a [while] held-clause — each with its own diagnostic);
   - conflicting rank declarations for one name;
   - two distinct lock names declaring the same rank (a duplicate rank
     makes "strictly increasing" ambiguous between them);
   - a rank inversion: acquiring a lock while holding one of equal or
     higher rank (same-name re-acquisition is allowed when the lock is
     declared reentrant).

   Rank ordering makes deadlock cycles impossible wherever the declared
   held-sets are accurate — the annotations are the contract reviewers
   keep honest, the lint keeps them from rotting silently, and the
   runtime witness ({!Obs.Lockdep} + {!Lockdep_lint}) checks them
   against the lock orders the server really exhibits. *)

let pass = "lock"

let tokens =
  [
    "Mutex.lock";
    "Lockdep.with_mutex";
    "Condition.wait";
    "Rwlock.acquire_read";
    "Rwlock.acquire_write";
    "Rwlock.read_locked";
    "Rwlock.write_locked";
  ]

let loc file i = Printf.sprintf "%s:%d" file (i + 1)

let lint_sources sources =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  (* pass 1: aggregate declarations across every scanned file; first
     declaration wins, later disagreements are reported *)
  let all_decls = Ann.collect_decls sources in
  let decls : (string, Ann.decl) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (d : Ann.decl) ->
      match Hashtbl.find_opt decls d.Ann.d_name with
      | Some d0
        when d0.Ann.d_rank <> d.Ann.d_rank
             || d0.Ann.d_reentrant <> d.Ann.d_reentrant ->
          add
            (Diag.error ~pass ~subject:(loc d.Ann.d_file (d.Ann.d_line - 1))
               "conflicting @lock-order declarations for %s (rank %d vs %d)"
               d.Ann.d_name d0.Ann.d_rank d.Ann.d_rank)
      | Some _ -> ()
      | None ->
          (* a duplicate rank under a different name makes "strictly
             increasing" ambiguous between the two locks *)
          Hashtbl.iter
            (fun other (o : Ann.decl) ->
              if o.Ann.d_rank = d.Ann.d_rank then
                add
                  (Diag.error ~pass
                     ~subject:(loc d.Ann.d_file (d.Ann.d_line - 1))
                     "duplicate rank %d: %s and %s declare the same rank"
                     d.Ann.d_rank other d.Ann.d_name))
            decls;
          Hashtbl.replace decls d.Ann.d_name d)
    all_decls;
  let declared name = Hashtbl.find_opt decls name in
  (* pass 2: every acquisition site must be annotated and rank-ordered *)
  List.iter
    (fun (file, contents) ->
      let lines = Array.of_list (Ann.lines_of contents) in
      Array.iteri
        (fun i line ->
          match List.find_opt (fun tok -> Ann.contains line tok) tokens with
          | None -> ()
          | Some tok -> (
              (* state annotations don't annotate acquisitions: skip a
                 @guarded-by sitting between the site and its @acquires *)
              let rec find_ann k =
                if k > 3 || i - k < 0 then None
                else
                  match Ann.parse_ann lines.(i - k) with
                  | Some (Ann.Guarded_by _) | None -> find_ann (k + 1)
                  | Some a -> Some a
              in
              match find_ann 0 with
              | None ->
                  add
                    (Diag.error ~pass ~subject:(loc file i)
                       "unannotated lock acquisition (%s): add @acquires, \
                        @waits, or @lock-ignore"
                       tok)
              | Some Ann.Ignore | Some (Ann.Guarded_by _) -> ()
              | Some (Ann.Waits (name, held)) ->
                  if declared name = None then
                    add
                      (Diag.error ~pass ~subject:(loc file i)
                         "@waits references undeclared lock %s" name);
                  List.iter
                    (fun h ->
                      if declared h = None then
                        add
                          (Diag.error ~pass ~subject:(loc file i)
                             "@waits while clause names undeclared lock %s" h))
                    held
              | Some (Ann.Acquires (name, held)) -> (
                  match declared name with
                  | None ->
                      add
                        (Diag.error ~pass ~subject:(loc file i)
                           "@acquires references undeclared lock %s" name)
                  | Some d ->
                      List.iter
                        (fun h ->
                          match declared h with
                          | None ->
                              add
                                (Diag.error ~pass ~subject:(loc file i)
                                   "held lock %s is undeclared (while clause \
                                    of @acquires %s)"
                                   h name)
                          | Some hd ->
                              if h = name then begin
                                if not d.Ann.d_reentrant then
                                  add
                                    (Diag.error ~pass ~subject:(loc file i)
                                       "re-acquires non-reentrant lock %s"
                                       name)
                              end
                              else if hd.Ann.d_rank >= d.Ann.d_rank then
                                add
                                  (Diag.error ~pass ~subject:(loc file i)
                                     "lock-order violation: acquiring %s \
                                      (rank %d) while holding %s (rank %d)"
                                     name d.Ann.d_rank h hd.Ann.d_rank))
                        held)))
        lines)
    sources;
  List.rev !diags

let lint_files paths = lint_sources (Ann.read_sources paths)
