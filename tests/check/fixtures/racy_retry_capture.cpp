// Lint fixture — NOT compiled, only scanned by scripts/lint_capture.py.
//
// mrmpi::run_with_retry runs its body on every rank thread, like
// simmpi::run: the `[&]` below shares `restarts` across all ranks with
// no happens-before edge. lint_capture.py must flag it (the ctest entry
// is WILL_FAIL).
#include <cstdint>

#include "mrmpi/retry.hpp"

void count_restarts(const simtime::MachineProfile& machine,
                    pfs::FileSystem& fs) {
  std::uint64_t restarts = 0;  // shared across all rank threads
  (void)mrmpi::run_with_retry(4, machine, fs, [&](simmpi::Context& ctx) {
    restarts += static_cast<std::uint64_t>(ctx.rank());
  });
}
