#include "game/nash.hpp"

#include "support/error.hpp"

namespace hecmine::game {

std::vector<double> flatten(const Profile& profile) {
  std::vector<double> flat;
  for (const auto& strategy : profile)
    flat.insert(flat.end(), strategy.begin(), strategy.end());
  return flat;
}

Profile unflatten(const std::vector<double>& flat,
                  const std::vector<std::size_t>& sizes) {
  std::size_t total = 0;
  for (std::size_t s : sizes) total += s;
  HECMINE_REQUIRE(total == flat.size(),
                  "unflatten: sizes must tile the flat vector");
  Profile profile(sizes.size());
  std::size_t offset = 0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    profile[i].assign(flat.begin() + static_cast<std::ptrdiff_t>(offset),
                      flat.begin() + static_cast<std::ptrdiff_t>(offset + sizes[i]));
    offset += sizes[i];
  }
  return profile;
}

}  // namespace hecmine::game
