#include "common/status.hpp"

namespace hermes {

std::string Status::to_string() const {
  if (ok()) return "ok";
  std::string out = hermes::to_string(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace hermes
