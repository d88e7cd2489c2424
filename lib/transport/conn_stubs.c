/* Socket I/O for Conn without a bounce buffer.

   Unix.write_substring and Unix.read copy every byte through a stack
   buffer so that they can release the runtime lock around the
   syscall. These two stubs keep the lock and hand the kernel the
   OCaml strings themselves: [writev] gathers queued chunks in place,
   [read] fills a Bytes at an offset. Holding the lock is what keeps
   the GC from moving or freeing those strings during the call, and
   it is only acceptable because every Conn fd is non-blocking, so the
   syscall returns at once instead of stalling the other domains.

   Both return -1 when the call would block (EAGAIN, EWOULDBLOCK or
   EINTR) and raise Unix.Unix_error on any other error. */

#define _GNU_SOURCE
#include <errno.h>
#include <limits.h>
#include <sys/types.h>
#include <sys/uio.h>
#include <unistd.h>
#include <caml/mlvalues.h>
#include <caml/unixsupport.h>

#ifndef IOV_MAX
#define IOV_MAX 16
#endif

static value would_block_or_raise(const char *call)
{
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
    return Val_long(-1);
  caml_uerror(call, Nothing);
}

/* Write [bufs.(i).[offs.(i) .. ends.(i) - 1]] for
   [first <= i < first + count] (at most IOV_MAX of them) in one
   writev; the byte count written. */
value tpbs_conn_writev(value fd, value bufs, value offs, value ends,
                       value first, value count)
{
  struct iovec iov[IOV_MAX];
  intnat base = Long_val(first);
  intnat n = Long_val(count);
  if (n > IOV_MAX) n = IOV_MAX;
  for (intnat i = 0; i < n; i++) {
    intnat off = Long_val(Field(offs, base + i));
    iov[i].iov_base = (char *)String_val(Field(bufs, base + i)) + off;
    iov[i].iov_len = Long_val(Field(ends, base + i)) - off;
  }
  ssize_t w = writev(Int_val(fd), iov, (int)n);
  if (w < 0) return would_block_or_raise("writev");
  return Val_long(w);
}

value tpbs_conn_writev_byte(value *argv, int argn)
{
  (void)argn;
  return tpbs_conn_writev(argv[0], argv[1], argv[2], argv[3], argv[4],
                          argv[5]);
}

/* Read up to [len] bytes into [buf] at [off]; 0 is end of file. */
value tpbs_conn_read(value fd, value buf, value off, value len)
{
  ssize_t r = read(Int_val(fd), Bytes_val(buf) + Long_val(off),
                   Long_val(len));
  if (r < 0) return would_block_or_raise("read");
  return Val_long(r);
}
