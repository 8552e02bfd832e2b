(* Words allocated so far by this domain: minor + major - promoted, the
   count [bench hotpath] gates on.  [Gc.minor_words] is exact on OCaml 4.14
   and 5.1 alike, where [Gc.quick_stat]'s minor count only advances at
   collections. *)
let count () =
  let minor = Gc.minor_words () in
  let _, promoted, major = Gc.counters () in
  minor +. major -. promoted
