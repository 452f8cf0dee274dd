let software_instructions_per_byte = 3

let software_setup_instructions = 4

let software_instructions ~input_bytes =
  software_setup_instructions + (software_instructions_per_byte * input_bytes)
