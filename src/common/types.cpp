#include "common/types.hpp"

#include <ostream>

namespace updp2p::common {

std::ostream& operator<<(std::ostream& os, PeerId id) {
  return os << "peer#" << id.value();
}

}  // namespace updp2p::common
