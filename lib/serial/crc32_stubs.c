/* CRC-32 (IEEE, reflected polynomial 0xEDB88320), slicing-by-8.

   Table [k] advances a byte that sits [k] positions before the end of
   an 8-byte block, so one step folds 8 bytes with 8 lookups and no
   per-byte shift chain. The tables are filled once, from the OCaml
   module initializer of Wire, before any checksum is taken: the hot
   call never tests or builds them, so domains cannot race on them. */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

static uint32_t crc_table[8][256];

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
  return Val_unit;
}

static inline uint32_t load_le32(const unsigned char *p)
{
  uint32_t x;
  memcpy(&x, p, 4);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  x = __builtin_bswap32(x);
#endif
  return x;
}

/* [crc] is a finished CRC (0 to start afresh), like zlib's [crc32]:
   the result is the CRC of whatever [crc] covered followed by
   [s.[pos .. pos+len-1]]. Bounds are checked on the OCaml side. */
intnat tpbs_crc32_update(intnat crc, value s, intnat pos, intnat len)
{
  const unsigned char *p = (const unsigned char *)String_val(s) + pos;
  uint32_t c = ~(uint32_t)crc;
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
  return (intnat)(~c);
}

value tpbs_crc32_update_byte(value crc, value s, value pos, value len)
{
  return Val_long(
      tpbs_crc32_update(Long_val(crc), s, Long_val(pos), Long_val(len)));
}
