(** Building arrays of boxed values without forcing minor collections.

    OCaml 5 allocates an array of more than 256 words directly in the
    major heap, and when its initial value is young it first empties the
    minor heap ([caml_make_vect]), so that the new array holds no
    major-to-minor pointers.  [Array.init], [Array.of_list] and
    [Array.map] start from their first element, so on a run path each
    such call on a long array is a full minor collection.  These build
    the same arrays from [fill], a static or long-lived value, and then
    store the elements. *)

val init : fill:'a -> int -> (int -> 'a) -> 'a array
(** [Array.init n f], calling [f] in index order.
    @raise Invalid_argument if [n] is negative. *)

val of_list : fill:'a -> 'a list -> 'a array
(** [Array.of_list l]. *)

val of_rev_list : fill:'a -> 'a list -> 'a array
(** [Array.of_list (List.rev l)], without the reversed list. *)
