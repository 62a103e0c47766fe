let call = Lintfix_r14_bad_lib.Dead.outside_only 3
