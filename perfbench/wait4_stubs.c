/* wait4(2) for the benchmark: OCaml's Unix has no getrusage, and the
   peak resident set of a reaped child is only available from the
   kernel's rusage record. */

#include <errno.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* Blocks until [pid] ends.  Returns (exit code, ru_maxrss in KiB); a
   child killed by signal [s] reports exit code 128 + s. */
value perfbench_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t r;
  memset(&ru, 0, sizeof ru);
  caml_enter_blocking_section();
  do {
    r = wait4(Int_val(vpid), &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) caml_failwith(strerror(errno));
  res = caml_alloc_tuple(2);
  Store_field(res, 0,
              Val_int(WIFEXITED(status) ? WEXITSTATUS(status)
                                        : 128 + WTERMSIG(status)));
  Store_field(res, 1, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}
