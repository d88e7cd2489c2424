/* Readiness through poll(2), for the broker's event loop and the
   client's waits (Conn.poll_fds, Conn.wait).

   Unix.select works on an fd_set, which holds descriptors below
   FD_SETSIZE (1024) only: one session past that made the broker's
   select fail with EINVAL, and a client socket past it could not
   connect. poll takes an array of any descriptors.

   The descriptors and requested events are copied into C memory
   first, so the runtime lock can be released while poll blocks (the
   GC may then move or collect the OCaml arrays), and the results are
   copied back once it is held again. */

#include <errno.h>
#include <poll.h>
#include <stdlib.h>
#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

/* Bits of [events]: 1 = readable, 2 = writable. */
#define TPBS_READ 1
#define TPBS_WRITE 2

/* Wait up to [timeout_ms] (forever when negative) until one of
   [fds.(i)], [i < n], is ready for what [events.(i)] asks. On return
   [events.(i)] holds what it is ready for: a descriptor in error or
   hung up reads as readable, so its reader finds out. The result is
   the number of ready descriptors, 0 on timeout or EINTR. */
value tpbs_poll(value fds, value events, value count, value timeout_ms)
{
  CAMLparam2(fds, events);
  mlsize_t n = Long_val(count);
  if (n > Wosize_val(fds) || n > Wosize_val(events))
    caml_invalid_argument("Conn.poll_fds");
  struct pollfd stack[64];
  struct pollfd *pfd = stack;
  if (n > 64) {
    pfd = malloc(n * sizeof *pfd);
    if (pfd == NULL) caml_raise_out_of_memory();
  }
  for (mlsize_t i = 0; i < n; i++) {
    intnat want = Long_val(Field(events, i));
    pfd[i].fd = Int_val(Field(fds, i));
    pfd[i].events = (short)(((want & TPBS_READ) ? POLLIN : 0)
                            | ((want & TPBS_WRITE) ? POLLOUT : 0));
    pfd[i].revents = 0;
  }
  caml_enter_blocking_section();
  int r = poll(pfd, (nfds_t)n, (int)Long_val(timeout_ms));
  int err = errno;
  caml_leave_blocking_section();
  if (r < 0) {
    /* Interrupted: nothing is ready. The revents are still zero, so
       the copy-back below reports every entry as 0. */
    if (err == EINTR) r = 0;
    else {
      if (pfd != stack) free(pfd);
      errno = err;
      caml_uerror("poll", Nothing);
    }
  }
  for (mlsize_t i = 0; i < n; i++) {
    short re = pfd[i].revents;
    intnat got = ((re & (POLLIN | POLLHUP | POLLERR | POLLNVAL)) ? TPBS_READ : 0)
                 | ((re & POLLOUT) ? TPBS_WRITE : 0);
    Store_field(events, i, Val_long(got));
  }
  if (pfd != stack) free(pfd);
  CAMLreturn(Val_int(r));
}
