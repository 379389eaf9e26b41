// Link-time probes of the traced benchmark binary (probes.cpp).
#pragma once

#include <string>
#include <vector>

namespace perfbench {

// Names of the probed library functions whose symbol the linker did not
// find: the function was renamed or its signature changed, so its calls go
// untraced. The traced run reports them instead of failing.
std::vector<std::string> unbound_probes();

}  // namespace perfbench
