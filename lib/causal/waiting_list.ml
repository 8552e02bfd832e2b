(* One-blocker waiting list.

   Messages live in per-origin dense rings keyed by seq (window [base,
   base+span), holes allowed), the layout of [History], compressed at the
   front so the per-origin oldest mid ([waiting_i]) reads off the base.

   Readiness is indexed by one blocker per entry, and every entry is filed
   in exactly one place:

   - [fresh]: added since the last [take_processable], which classifies it
     right after its sync, against the vector it just read ([add] has no
     delivery vector).
   - parked: under its first unprocessed predecessor, the chain predecessor
     [(origin, seq-1)] first and then [deps] in array order.  [cursor]
     records how far along that sequence the entry got; [index] maps the
     blocker's exact [(origin, seq)], encoded as one int, to the entries
     parked on it.  The sync wakes exactly those entries when it sees that
     mid processed, and they resume from their cursor.
   - ready: chain position [seen(origin)+1] and every dep processed.  At
     most one seq per origin qualifies, so popping the lowest ready origin
     yields the first processable message in mid order, as the reference
     whole-list scan does.
   - stuck: the group skipped past its chain position (orphan destruction).
     Never processable, filed nowhere, still seen by [oldest]/[to_list].

   A taken, removed or discarded entry leaves no reference in any index, so
   the footprint follows what the list holds, not what it ever held.

   Costs: [add], [mem] and [oldest] are O(1); [remove] is O(1) plus the
   length of the list the entry is filed in.  [take_processable] on a
   non-empty list is O(n) for the sync and the pop, plus O(1) per seq the
   vector advanced while anything is parked, plus cursor steps: a cursor
   only moves forward, so classification costs O(1 + |deps|) over an
   entry's whole stay.  [discard_from] is O(n + tail swept), plus, once
   the root sweep finds a victim, O(W + their deps) to build the reverse
   index of explicit deps from the live entries and walk the victims.
   All origins (of messages and deps) must lie in [0, n). *)

module Itbl = Hashtbl.Make (struct
  type t = int let equal = Int.equal let hash = Fun.id end)

type 'a entry = {
  msg : 'a Causal_msg.t;
  mutable cursor : int;  (* -1: chain predecessor; i: [deps.(i)]; or [gone] *)
  mutable key : int;  (* blocker key while parked, else [in_fresh]/[unfiled] *)
}

let gone = min_int
let in_fresh = -1
let unfiled = 0 (* blocker keys are [seq * n + origin] >= n > 0 *)

type 'a ring = {
  mutable buf : 'a entry option array;
  mutable head : int;  (* physical index of seq [base] *)
  mutable base : int;  (* lowest seq covered by the window *)
  mutable span : int;  (* seqs covered: [base, base + span) *)
  mutable count : int; (* occupied slots within the window *)
}

type 'a t = {
  n : int;
  mutable size : int;
  mutable rings : 'a ring option array;
      (* [||] until the first add, rings created on demand: most lists never
         hold a message, and every fault-free run pays their footprint. *)
  mutable seen : int array;  (* the vector at the last sync *)
  mutable woken : int array;  (* per origin: blockers up to this seq woken *)
  mutable ready : int array;  (* per origin: the ready seq, 0 if none *)
  mutable fresh : 'a entry list;
  index : 'a entry list Itbl.t;
  mutable empty_vec : Mid.t option array;  (* shared all-[None] vector *)
}

let create ~n =
  if n <= 0 then invalid_arg "Waiting_list.create: n must be positive";
  { n; size = 0; rings = [||]; seen = [||]; woken = [||]; ready = [||];
    fresh = []; index = Itbl.create 8; empty_vec = [||] }

(* -- per-origin rings ---------------------------------------------------- *)

let ring_of t o =
  match t.rings.(o) with
  | Some r -> r
  | None ->
      let r = { buf = [||]; head = 0; base = 0; span = 0; count = 0 } in
      t.rings.(o) <- Some r;
      r

let phys r i = (r.head + i) land (Array.length r.buf - 1)

let slot r seq =
  if r.span = 0 || seq < r.base || seq >= r.base + r.span then None
  else r.buf.(phys r (seq - r.base))

let find_entry t mid =
  if Array.length t.rings = 0 then None
  else
    match t.rings.(Net.Node_id.to_int (Mid.origin mid)) with
    | None -> None
    | Some r -> slot r (Mid.seq mid)

(* Apply [f] to the live entries of [r] with seq in [lo, hi], ascending. *)
let iter_live r lo hi f =
  for s = max lo r.base to min hi (r.base + r.span - 1) do
    Option.iter f r.buf.(phys r (s - r.base))
  done

let rec next_pow2 n k = if k >= n then k else next_pow2 n (k * 2)

(* Re-house the window in a fresh buffer of at least [needed] slots, leaving
   [offset] empty slots below the current base (for downward extension). *)
let rehouse r ~needed ~offset =
  let ncap = next_pow2 needed 16 in
  let nbuf = Array.make ncap None in
  for i = 0 to r.span - 1 do
    nbuf.(offset + i) <- r.buf.(phys r i)
  done;
  r.buf <- nbuf;
  r.head <- 0

(* Make seq part of the window and store the entry there.  The caller has
   already checked the mid is not present, so the slot is a hole. *)
let ring_put r seq entry =
  if r.span = 0 then begin
    if Array.length r.buf = 0 then r.buf <- Array.make 16 None;
    r.head <- 0;
    r.base <- seq;
    r.span <- 1
  end
  else if seq >= r.base + r.span then begin
    let needed = seq - r.base + 1 in
    if needed > Array.length r.buf then rehouse r ~needed ~offset:0;
    r.span <- needed
  end
  else if seq < r.base then begin
    let delta = r.base - seq in
    let needed = r.span + delta in
    if needed > Array.length r.buf then rehouse r ~needed ~offset:delta
    else begin
      let cap = Array.length r.buf in
      r.head <- (r.head + cap - delta) land (cap - 1)
    end;
    r.base <- seq;
    r.span <- needed
  end;
  r.buf.(phys r (seq - r.base)) <- Some entry;
  r.count <- r.count + 1

(* Remove seq from the window, keeping the front compressed: when [count >
   0] the base slot is always occupied.  The hole-skipping scan amortizes to
   O(1) — each slot position is stepped over at most once per window pass. *)
let ring_remove r seq =
  r.buf.(phys r (seq - r.base)) <- None;
  r.count <- r.count - 1;
  if r.count = 0 then begin
    r.head <- 0;
    r.span <- 0
  end
  else if seq = r.base then begin
    let i = ref 1 in
    while Option.is_none r.buf.(phys r !i) do
      incr i
    done;
    r.head <- phys r !i;
    r.base <- r.base + !i;
    r.span <- r.span - !i
  end

(* -- filing -------------------------------------------------------------- *)

let key t o s = (s * t.n) + o
let key_of t mid = key t (Net.Node_id.to_int (Mid.origin mid)) (Mid.seq mid)

let park t e k =
  e.key <- k;
  match Itbl.find t.index k with
  | l -> Itbl.replace t.index k (e :: l)
  | exception Not_found -> Itbl.add t.index k [ e ]

(* The first dep from index [i] on that [seen] has not processed. *)
let rec first_unprocessed seen deps i =
  if i < Array.length deps
     && Mid.seq deps.(i) <= seen.(Net.Node_id.to_int (Mid.origin deps.(i)))
  then first_unprocessed seen deps (i + 1)
  else i

(* File [e] under its first unprocessed predecessor from the cursor on, or
   as ready when there is none.  Runs only against a freshly synced [seen]. *)
let classify t e =
  let mid = e.msg.Causal_msg.mid and deps = e.msg.Causal_msg.deps in
  let o = Net.Node_id.to_int (Mid.origin mid) and s = Mid.seq mid in
  if s <= t.seen.(o) then () (* stuck *)
  else if e.cursor < 0 && s - 1 > t.seen.(o) then park t e (key t o (s - 1))
  else begin
    e.cursor <- first_unprocessed t.seen deps (max e.cursor 0);
    if e.cursor < Array.length deps then park t e (key_of t deps.(e.cursor))
    else t.ready.(o) <- s (* = seen(o) + 1 *)
  end

(* Top-level recursion: waking allocates no closure. *)
let rec classify_all t = function
  | [] -> ()
  | e :: rest ->
      e.key <- unfiled;
      classify t e;
      classify_all t rest

(* Take [e] and every other [gone] entry out of the list [e] is filed in:
   one pass however many victims of a discard share that list. *)
let unfile t e =
  let k = e.key in
  let keep x = x.cursor <> gone || (x.key <- unfiled; false) in
  if k = in_fresh then t.fresh <- List.filter keep t.fresh
  else if k <> unfiled then
    match List.filter keep (Itbl.find t.index k) with
    | [] -> Itbl.remove t.index k
    | l -> Itbl.replace t.index k l

(* Drop an entry that is ready, stuck or marked [gone] from every place. *)
let drop t e =
  let mid = e.msg.Causal_msg.mid in
  let o = Net.Node_id.to_int (Mid.origin mid) in
  unfile t e;
  ring_remove (ring_of t o) (Mid.seq mid);
  t.size <- t.size - 1;
  if t.ready.(o) = Mid.seq mid then t.ready.(o) <- 0

(* -- public structure ---------------------------------------------------- *)

let add t msg =
  let mid = msg.Causal_msg.mid in
  if Option.is_none (find_entry t mid) then begin
    if Array.length t.seen = 0 then begin
      (* The first add allocates the per-origin state.  [seen] may start at
         zeros: [take_processable] syncs it before classifying anything. *)
      t.rings <- Array.make t.n None;
      t.seen <- Array.make t.n 0;
      t.woken <- Array.make t.n 0;
      t.ready <- Array.make t.n 0
    end;
    let e = { msg; cursor = -1; key = in_fresh } in
    ring_put (ring_of t (Net.Node_id.to_int (Mid.origin mid))) (Mid.seq mid) e;
    t.size <- t.size + 1;
    t.fresh <- e :: t.fresh
  end

let remove t mid =
  match find_entry t mid with
  | Some e -> e.cursor <- gone; drop t e
  | None -> ()

let mem t mid = Option.is_some (find_entry t mid)
let length t = t.size
let is_empty t = t.size = 0

let oldest t ~origin =
  let o = Net.Node_id.to_int origin in
  if o >= t.n || Array.length t.rings = 0 then None
  else
    match t.rings.(o) with
    | Some { count; buf; head; _ } when count > 0 -> (
        match buf.(head) with
        | Some e -> Some e.msg.Causal_msg.mid
        | None -> assert false (* front compression: base slot occupied *))
    | Some _ | None -> None

let oldest_vector t =
  if t.size = 0 then begin
    (* Every request of a member with nothing waiting carries an all-[None]
       vector; share one physical array per list instead of allocating n
       words per subrun.  Callers treat request vectors as read-only. *)
    if Array.length t.empty_vec < t.n then t.empty_vec <- Array.make t.n None;
    t.empty_vec
  end
  else Array.init t.n (fun i -> oldest t ~origin:(Net.Node_id.of_int i))

(* -- readiness sync ------------------------------------------------------ *)

(* Catch [seen] up with the live vector, then wake the entries parked on
   every newly processed mid.  Waking waits for the whole vector, so no
   entry is classified against a stale origin. *)
let sync t delivery =
  for o = 0 to t.n - 1 do
    let last = Delivery.last_processed delivery (Net.Node_id.of_int o) in
    if last > t.seen.(o) then begin
      (* Its ready entry, seq [seen+1], was processed or skipped elsewhere. *)
      t.ready.(o) <- 0;
      t.seen.(o) <- last
    end
  done;
  for o = 0 to t.n - 1 do
    let s = ref t.woken.(o) in
    while !s < t.seen.(o) && Itbl.length t.index > 0 do
      incr s;
      let k = key t o !s in
      match Itbl.find t.index k with
      | l ->
          Itbl.remove t.index k;
          classify_all t l
      | exception Not_found -> ()
    done;
    t.woken.(o) <- t.seen.(o)
  done

let rec lowest_ready ready o =
  if o >= Array.length ready then -1
  else if ready.(o) > 0 then o
  else lowest_ready ready (o + 1)

let take_processable t delivery =
  (* Empty-list fast path: the fault-free hot loop calls this once per
     processed message, and an O(n) sync there would make every delivery
     O(n) again.  [seen] may lag meanwhile: nothing is filed while the list
     is empty, and what is added next is classified after the next sync. *)
  if t.size = 0 then None
  else begin
    sync t delivery;
    let fresh = t.fresh in
    t.fresh <- [];
    classify_all t fresh;
    match lowest_ready t.ready 0 with
    | -1 -> None
    | o -> (
        match slot (ring_of t o) t.ready.(o) with
        | Some e -> drop t e; Some e.msg
        | None -> assert false (* ready entries are always live *))
  end

(* -- discard cascade ----------------------------------------------------- *)

let discard_from t ~origin ~seq =
  if t.size = 0 then []
  else begin
    let victims = ref [] and unvisited = ref [] in
    let doom e =
      if e.cursor <> gone then begin
        e.cursor <- gone;
        victims := e :: !victims;
        unvisited := e :: !unvisited
      end
    in
    (* Every waiting message of [o] from [from] on depends on a victim
       through the implicit chain.  [swept_from] keeps the sweeps of
       overlapping tails (one per same-origin victim) linear. *)
    let swept_from = Array.make t.n max_int in
    let sweep_tail o from =
      if from < swept_from.(o) then begin
        Option.iter
          (fun r -> iter_live r from (swept_from.(o) - 1) doom) t.rings.(o);
        swept_from.(o) <- from
      end
    in
    (* Explicit dep -> the live entries listing it, built only once the
       root sweep found a victim, and only for deps that are themselves
       waiting: nothing else can become a victim. *)
    let rdeps =
      lazy
        (let rdeps = Itbl.create 64 in
         let register e =
           Array.iter
             (fun d -> if mem t d then Itbl.add rdeps (key_of t d) e)
             e.msg.Causal_msg.deps
         in
         Array.iter
           (Option.iter (fun r -> iter_live r 1 max_int register)) t.rings;
         rdeps)
    in
    let rec visit () =
      match !unvisited with
      | [] -> ()
      | v :: rest ->
          unvisited := rest;
          let vm = v.msg.Causal_msg.mid in
          sweep_tail (Net.Node_id.to_int (Mid.origin vm)) (Mid.seq vm + 1);
          List.iter doom (Itbl.find_all (Lazy.force rdeps) (key_of t vm));
          visit ()
    in
    sweep_tail (Net.Node_id.to_int origin) seq;
    visit ();
    !victims
    |> List.sort (fun a b ->
           Mid.compare a.msg.Causal_msg.mid b.msg.Causal_msg.mid)
    |> List.map (fun e -> drop t e; e.msg.Causal_msg.mid)
  end

let to_list t =
  let acc = ref [] in
  let push e = acc := e.msg :: !acc in
  Array.iter (Option.iter (fun r -> iter_live r 1 max_int push)) t.rings;
  List.rev !acc
