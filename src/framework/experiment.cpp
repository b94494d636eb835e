#include "framework/experiment.hpp"

#include <cstdio>
#include <cstdlib>

namespace quicsteps::framework {

const char* to_string(StackKind kind) {
  switch (kind) {
    case StackKind::kQuiche:
      return "quiche";
    case StackKind::kQuicheSf:
      return "quiche+SF";
    case StackKind::kPicoquic:
      return "picoquic";
    case StackKind::kNgtcp2:
      return "ngtcp2";
    case StackKind::kTcpTls:
      return "TCP/TLS";
    case StackKind::kIdealQuic:
      return "ideal-quic";
  }
  return "?";
}

std::optional<std::int64_t> env_whole_number(const char* name,
                                             std::int64_t lo,
                                             std::int64_t hi) {
  const char* env = std::getenv(name);
  if (env == nullptr) return std::nullopt;
  const auto value = parse_number(env, lo, hi);
  if (!value) {
    std::fprintf(stderr, "%s needs a whole number in [%lld, %lld], got '%s'\n",
                 name, static_cast<long long>(lo), static_cast<long long>(hi),
                 env);
    std::exit(2);
  }
  return value;
}

std::int64_t whole_number_arg(const char* program, const char* name,
                              const char* text, std::int64_t lo,
                              std::int64_t hi) {
  const auto value = parse_number(std::string_view(text), lo, hi);
  if (!value) {
    std::fprintf(stderr,
                 "%s: %s needs a whole number in [%lld, %lld], got '%s'\n",
                 program, name, static_cast<long long>(lo),
                 static_cast<long long>(hi), text);
    std::exit(2);
  }
  return *value;
}

std::int64_t env_payload_bytes(std::int64_t fallback) {
  const auto mib = env_whole_number("QUICSTEPS_PAYLOAD_MIB", 1, 1 << 20);
  return mib ? *mib * 1024 * 1024 : fallback;
}

int env_repetitions(int fallback) {
  return static_cast<int>(
      env_whole_number("QUICSTEPS_REPS", 1, 100000).value_or(fallback));
}

}  // namespace quicsteps::framework
