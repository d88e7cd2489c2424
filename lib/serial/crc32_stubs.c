/* CRC-32 (IEEE, reflected polynomial 0xEDB88320).

   Two kernels compute the same function:

   - slicing-by-8 tables, portable. Table [k] advances a byte that sits
     [k] positions before the end of an 8-byte block, so one step folds
     8 bytes with 8 lookups and no per-byte shift chain.

   - carry-less-multiply folding (x86-64 with PCLMULQDQ and SSE4.1),
     after Gopal et al., "Fast CRC Computation for Generic Polynomials
     Using PCLMULQDQ Instruction" (Intel, 2009). Four 128-bit lanes
     fold 64 bytes per step; the lanes are then folded into one, which
     steps 16 bytes at a time, and a Barrett reduction brings the 128
     bits down to the 32-bit CRC. The last [len mod 16] bytes, and any
     buffer under 64 bytes, go through the tables.

   [tpbs_crc32_init] runs once, from the OCaml module initializer of
   Wire, before any checksum is taken and before any domain starts: it
   fills the tables and picks the kernel from CPUID. The hot call never
   tests or builds anything, so domains cannot race on either. */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__) && defined(__GNUC__)
#define TPBS_CRC_CLMUL 1
#include <immintrin.h>
#endif

static uint32_t crc_table[8][256];

static inline uint32_t load_le32(const unsigned char *p)
{
  uint32_t x;
  memcpy(&x, p, 4);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  x = __builtin_bswap32(x);
#endif
  return x;
}

/* Both kernels work on the inverted running state [c] (~crc) and
   return the state after [p .. p+len-1]. */
static uint32_t crc_tables(uint32_t c, const unsigned char *p, size_t len)
{
  while (len >= 8) {
    uint32_t lo = load_le32(p) ^ c;
    uint32_t hi = load_le32(p + 4);
    c = crc_table[7][lo & 0xff] ^ crc_table[6][(lo >> 8) & 0xff]
        ^ crc_table[5][(lo >> 16) & 0xff] ^ crc_table[4][lo >> 24]
        ^ crc_table[3][hi & 0xff] ^ crc_table[2][(hi >> 8) & 0xff]
        ^ crc_table[1][(hi >> 16) & 0xff] ^ crc_table[0][hi >> 24];
    p += 8;
    len -= 8;
  }
  while (len-- > 0)
    c = crc_table[0][(c ^ *p++) & 0xff] ^ (c >> 8);
  return c;
}

#ifdef TPBS_CRC_CLMUL
/* [x] multiplied forward by the constant pair [k], plus [next]. */
#define CLMUL_FOLD(x, k, next)                                          \
  _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128((x), (k), 0x00),     \
                              _mm_clmulepi64_si128((x), (k), 0x11)),    \
                (next))

__attribute__((target("pclmul,sse4.1")))
static uint32_t crc_clmul(uint32_t c, const unsigned char *p, size_t len)
{
  if (len < 64)
    return crc_tables(c, p, len);

  /* Folding constants for the bit-reflected polynomial, from the
     paper's appendix: k1/k2 fold a lane 512 bits ahead, k3/k4 128
     bits ahead, k5 folds 64 bits to 32, and [poly] holds P(x) and the
     Barrett quotient mu = floor(x^64 / P(x)). */
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 = _mm_loadu_si128((const __m128i *)(p + 0x00));
  __m128i x2 = _mm_loadu_si128((const __m128i *)(p + 0x10));
  __m128i x3 = _mm_loadu_si128((const __m128i *)(p + 0x20));
  __m128i x4 = _mm_loadu_si128((const __m128i *)(p + 0x30));
  x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128((int)c));
  p += 64;
  len -= 64;

  while (len >= 64) {
    x1 = CLMUL_FOLD(x1, k1k2, _mm_loadu_si128((const __m128i *)(p + 0x00)));
    x2 = CLMUL_FOLD(x2, k1k2, _mm_loadu_si128((const __m128i *)(p + 0x10)));
    x3 = CLMUL_FOLD(x3, k1k2, _mm_loadu_si128((const __m128i *)(p + 0x20)));
    x4 = CLMUL_FOLD(x4, k1k2, _mm_loadu_si128((const __m128i *)(p + 0x30)));
    p += 64;
    len -= 64;
  }

  x1 = CLMUL_FOLD(x1, k3k4, x2);
  x1 = CLMUL_FOLD(x1, k3k4, x3);
  x1 = CLMUL_FOLD(x1, k3k4, x4);

  while (len >= 16) {
    x1 = CLMUL_FOLD(x1, k3k4, _mm_loadu_si128((const __m128i *)p));
    p += 16;
    len -= 16;
  }

  /* 128 -> 64 bits, then 64 -> 32 bits. */
  __m128i x = _mm_xor_si128(_mm_srli_si128(x1, 8),
                            _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00));

  /* Barrett reduction to the 32-bit remainder. */
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  x = _mm_xor_si128(x, t);

  return crc_tables((uint32_t)_mm_extract_epi32(x, 1), p, len);
}
#endif

static uint32_t (*crc_kernel)(uint32_t, const unsigned char *, size_t) =
    crc_tables;

value tpbs_crc32_init(value unit)
{
  (void)unit;
  for (uint32_t i = 0; i < 256; i++) {
    uint32_t c = i;
    for (int k = 0; k < 8; k++)
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    crc_table[0][i] = c;
  }
  for (int k = 1; k < 8; k++)
    for (int i = 0; i < 256; i++) {
      uint32_t prev = crc_table[k - 1][i];
      crc_table[k][i] = (prev >> 8) ^ crc_table[0][prev & 0xff];
    }
#ifdef TPBS_CRC_CLMUL
  __builtin_cpu_init();
  if (__builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1"))
    crc_kernel = crc_clmul;
#endif
  return Val_unit;
}

/* [crc] is a finished CRC (0 to start afresh), like zlib's [crc32]:
   the result is the CRC of whatever [crc] covered followed by
   [s.[pos .. pos+len-1]]. Bounds are checked on the OCaml side. */
intnat tpbs_crc32_update(intnat crc, value s, intnat pos, intnat len)
{
  const unsigned char *p = (const unsigned char *)String_val(s) + pos;
  return (intnat)(~crc_kernel(~(uint32_t)crc, p, (size_t)len));
}

value tpbs_crc32_update_byte(value crc, value s, value pos, value len)
{
  return Val_long(
      tpbs_crc32_update(Long_val(crc), s, Long_val(pos), Long_val(len)));
}

/* The table kernel whatever the CPU, for tests that hold the folding
   kernel to it. */
intnat tpbs_crc32_update_tables(intnat crc, value s, intnat pos, intnat len)
{
  const unsigned char *p = (const unsigned char *)String_val(s) + pos;
  return (intnat)(~crc_tables(~(uint32_t)crc, p, (size_t)len));
}

value tpbs_crc32_update_tables_byte(value crc, value s, value pos, value len)
{
  return Val_long(tpbs_crc32_update_tables(Long_val(crc), s, Long_val(pos),
                                           Long_val(len)));
}
