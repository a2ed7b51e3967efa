#include "numerics/gradient.hpp"

#include "support/error.hpp"

namespace hecmine::num {

std::vector<double> central_gradient(
    const std::function<double(const std::vector<double>&)>& f,
    const std::vector<double>& point, double step) {
  HECMINE_REQUIRE(step > 0.0, "central_gradient requires step > 0");
  std::vector<double> gradient(point.size());
  std::vector<double> probe = point;
  for (std::size_t i = 0; i < point.size(); ++i) {
    probe[i] = point[i] + step;
    const double f_plus = f(probe);
    probe[i] = point[i] - step;
    const double f_minus = f(probe);
    probe[i] = point[i];
    gradient[i] = (f_plus - f_minus) / (2.0 * step);
  }
  return gradient;
}

}  // namespace hecmine::num
