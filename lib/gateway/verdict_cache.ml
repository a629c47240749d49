module Verifier = Deflection_verifier.Verifier

(* An [In_flight] entry is a claim: the domain that inserted it is
   verifying; later arrivals for the same key block on the condition
   until the verdict lands, then re-look-up. This single-flight
   discipline makes hit/miss totals a function of the batch alone, not
   of the domain schedule. A claim whose verifier raised is simply
   removed (no terminal poisoned state): woken waiters find the key
   absent and convert to a fresh miss, so one crashed verification
   never blocks a measurement for the cache's lifetime. *)
type entry = { mutable state : state; mutable last_used : int }
and state = In_flight | Done of Verifier.verdict

type t = {
  mutex : Mutex.t;
  cond : Condition.t;
  table : (string, entry) Hashtbl.t;
  mutable epoch : int;  (* the recency every access stamps (see [set_epoch]) *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = { hits : int; misses : int; evictions : int; entries : int }

let create () =
  {
    mutex = Mutex.create ();
    cond = Condition.create ();
    table = Hashtbl.create 64;
    epoch = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let locked t f = Mutex.protect t.mutex f

let stats (t : t) =
  locked t (fun () ->
      let entries = Hashtbl.length t.table in
      { hits = t.hits; misses = t.misses; evictions = t.evictions; entries })

let stats_to_list s =
  [ ("hits", s.hits); ("misses", s.misses); ("evictions", s.evictions); ("entries", s.entries) ]

let set_epoch t e = locked t (fun () -> t.epoch <- e)

(* Evict least-recently-used settled entries while over [capacity].
   In-flight entries are never evicted (a waiter may hold a reference).
   Ties on [last_used] (routine under a pinned epoch) break on the key,
   so the victim sequence is a function of the table's contents alone. *)
let trim t ~capacity =
  if capacity < 0 then invalid_arg "Verdict_cache.trim: capacity must be >= 0";
  locked t @@ fun () ->
  let evicted = ref 0 in
  while
    Hashtbl.length t.table > capacity
    &&
    let victim = ref None in
    Hashtbl.iter
      (fun k e ->
        match e.state with
        | In_flight -> ()
        | Done _ -> (
          match !victim with
          | Some (bk, bu) when bu < e.last_used || (bu = e.last_used && bk <= k) -> ()
          | _ -> victim := Some (k, e.last_used)))
      t.table;
    match !victim with
    | None -> false
    | Some (k, _) ->
      Hashtbl.remove t.table k;
      t.evictions <- t.evictions + 1;
      incr evicted;
      true
  do
    ()
  done;
  !evicted

let lookup t ~key ~verify =
  Mutex.lock t.mutex;
  let rec attempt () =
    match Hashtbl.find_opt t.table key with
    | Some e -> (
      e.last_used <- t.epoch;
      match e.state with
      | Done v ->
        t.hits <- t.hits + 1;
        Mutex.unlock t.mutex;
        (v, `Hit)
      | In_flight ->
        (* wait for the claimant to settle, then re-look-up: the claim
           may have landed a verdict (hit on the next attempt) or died
           (key absent — this delivery claims afresh as a miss) *)
        Condition.wait t.cond t.mutex;
        attempt ())
    | None ->
      let e = { state = In_flight; last_used = t.epoch } in
      Hashtbl.replace t.table key e;
      t.misses <- t.misses + 1;
      Mutex.unlock t.mutex;
      (* verify outside the lock: distinct keys verify concurrently *)
      let settle f =
        locked t (fun () ->
            f ();
            Condition.broadcast t.cond)
      in
      let v =
        try verify ()
        with exn ->
          (* never leave waiters blocked on a dead claim: drop it and
             wake them — they re-attempt and verify afresh *)
          settle (fun () -> Hashtbl.remove t.table key);
          raise exn
      in
      settle (fun () -> e.state <- Done v);
      (v, `Miss)
  in
  attempt ()

(* Persistence surface: settled verdicts out, trusted verdicts back in.
   [export] never includes in-flight claims; [preload] never overwrites
   a live entry and never touches hit/miss accounting, so a reloaded
   cache's stats measure only post-restart traffic. *)
let export t =
  locked t (fun () ->
      Hashtbl.fold
        (fun k e acc -> match e.state with Done v -> (k, v) :: acc | In_flight -> acc)
        t.table [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let preload t ~key v =
  locked t (fun () ->
      if not (Hashtbl.mem t.table key) then
        Hashtbl.replace t.table key { state = Done v; last_used = t.epoch })
