#include "sim/kernel.hpp"

namespace cbus::sim {

void Kernel::step() { run(1); }

void Kernel::run(Cycle cycles) { advance([] { return false; }, cycles); }

}  // namespace cbus::sim
