#include "numerics/fixed_point.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"

namespace hecmine::num {

double max_norm_diff(const std::vector<double>& a,
                     const std::vector<double>& b) {
  HECMINE_REQUIRE(a.size() == b.size(), "max_norm_diff requires equal sizes");
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(a[i] - b[i]));
  return worst;
}

}  // namespace hecmine::num
