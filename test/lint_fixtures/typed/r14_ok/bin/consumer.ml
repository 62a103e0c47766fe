module K = Lintfix_r14_ok_lib.Kept

let call = K.used 1
