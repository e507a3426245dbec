#include "tensor/shape.hpp"

#include <sstream>
#include <stdexcept>

#include "util/alloc_check.hpp"

namespace dcsr {

namespace detail {

void throw_shape_rank(std::size_t rank) {
  // May fire from a braced-list conversion under a hot-path guard; sanction
  // the message so the rank diagnostic is not masked by HotPathAllocError.
  AllocAllowScope allow;
  throw std::invalid_argument("Shape: rank " + std::to_string(rank) +
                              " exceeds kMaxRank " +
                              std::to_string(Shape::kMaxRank));
}

}  // namespace detail

std::string Shape::str() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Shape& s) {
  if (s.empty()) return os << "<scalar>";
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (i) os << 'x';
    os << s[i];
  }
  return os;
}

}  // namespace dcsr
