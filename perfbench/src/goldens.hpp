// wire_hash goldens for every simulation of every workload at the
// workload's default seed, as sim_digest() folds them. Printed by
// `perfbench --workload <name> --print-digests`.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>

namespace perfbench {

struct Golden {
  const char* workload;
  const char* sim;
  std::uint64_t digest;
};

inline constexpr Golden kGoldens[] = {
    {"paper_40m", "quiche", 0xb9b7b6b4d0df9132ull},
    {"paper_40m", "quiche-sf", 0xda44c0760c19ab05ull},
    {"paper_40m", "picoquic", 0xb61e0a5766e45eafull},
    {"paper_40m", "ngtcp2", 0x1351cbabd0773f28ull},
    {"paper_40m", "tcp-tls", 0xd433a24ed87dc352ull},
    {"paper_40m", "picoquic-bbr", 0x3f1f1b964b223555ull},
    {"paper_40m", "quiche-sf-fq", 0x4a267ac0665d4be3ull},
    {"paper_40m", "quiche-sf-etf", 0x438f571f4df0feb0ull},
    {"paper_40m", "quiche-sf-fq-gso", 0x77b000f76a7a0b45ull},
    {"paper_40m", "quiche-sf-fq-gso-paced", 0xb73acc1d9f8dfa44ull},
    {"highrate_10g", "fq_codel-gro0", 0xab5c00052b860492ull},
    {"highrate_10g", "fq_codel-gro16", 0xd954ba8cfc01368aull},
    {"highrate_10g", "fq-paced-gso-gro0", 0xdb8c555c72f91e92ull},
    {"highrate_10g", "fq-paced-gso-gro16", 0x2810b198decf5911ull},
    {"fabric_10k", "ideal-x10000", 0xf3d05d93857cff8full},
    {"fleet_traced", "mixed-x200", 0x7c2615cd9703a669ull},
};

inline const std::uint64_t* find_golden(const std::string& workload,
                                        const std::string& sim) {
  for (const Golden& g : kGoldens) {
    if (workload == g.workload && sim == g.sim) return &g.digest;
  }
  return nullptr;
}

}  // namespace perfbench
