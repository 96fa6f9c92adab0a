(* SWAR over the low 62 bits (as in [Logic.Cube]), plus the sign bit. *)
let popcount x =
  let y = x land max_int in
  let y = y - ((y lsr 1) land 0x1555555555555555) in
  let y = (y land 0x3333333333333333) + ((y lsr 2) land 0x3333333333333333) in
  let y = (y + (y lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  ((y * 0x0101010101010101) lsr 56) + (x lsr 62)
