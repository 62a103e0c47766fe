/* Hardware CRC-32C: the SSE4.2 [crc32] instruction over the same
   register the portable kernel in crc32c.ml folds (pre- and
   post-inversion stay on the OCaml side). Eight bytes per instruction,
   then the bytewise tail. The function carries its own target
   attribute, so the file builds without a global -msse4.2; whether the
   CPU can run it is asked once, at module initialisation. Anywhere but
   x86-64 with GCC or Clang the kernel is reported unavailable. */

#include <stddef.h>
#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__) && defined(__GNUC__)
#include <nmmintrin.h>
#define LSM_CRC32C_HW 1

__attribute__((target("sse4.2")))
static uint32_t crc32c_sse42(uint32_t crc, const unsigned char *p, size_t len)
{
  uint64_t c = crc;
  while (len >= 8) {
    uint64_t w;
    memcpy(&w, p, 8);
    c = _mm_crc32_u64(c, w);
    p += 8;
    len -= 8;
  }
  crc = (uint32_t)c;
  while (len > 0) {
    crc = _mm_crc32_u8(crc, *p++);
    len--;
  }
  return crc;
}
#endif

/* [reg] is the running register, [s] is bounds-checked by the caller. */
intnat lsm_crc32c_hw_sub(intnat reg, value s, intnat pos, intnat len)
{
#ifdef LSM_CRC32C_HW
  return crc32c_sse42((uint32_t)reg, (const unsigned char *)String_val(s) + pos,
                      (size_t)len);
#else
  (void)s; (void)pos; (void)len;
  return reg;
#endif
}

value lsm_crc32c_hw_sub_byte(value reg, value s, value pos, value len)
{
  return Val_long(lsm_crc32c_hw_sub(Long_val(reg), s, Long_val(pos), Long_val(len)));
}

value lsm_crc32c_hw_available(value unit)
{
  (void)unit;
#ifdef LSM_CRC32C_HW
  __builtin_cpu_init();
  return Val_bool(__builtin_cpu_supports("sse4.2"));
#else
  return Val_false;
#endif
}
