// Values frozen when the benchmark was defined. Changing one changes the
// benchmark, and belongs in a change that claims no performance gain.
#ifndef XQBENCH_FROZEN_H_
#define XQBENCH_FROZEN_H_

#include <cstddef>
#include <cstdint>

namespace xqbench {

/// Identity of every input the default seed generates (file name as
/// EnsureDataset names it, size, FNV-1a 64 of the bytes). A run with the
/// default seed whose inputs differ fails before measuring anything.
struct FrozenInput {
  const char* name;
  std::size_t bytes;
  std::uint64_t fnv1a;
};

inline constexpr FrozenInput kSeed1Inputs[] = {
    {"treebank_131072_1.xml", 131812, 0xde18b4146daa8628ULL},
    {"treebank_262144_1.xml", 262404, 0xff8e3c2107e8ee2cULL},
    {"treebank_2097152_1.xml", 2097930, 0xadcde77e3358f85bULL},
    {"xmark_32768_1.xml", 32967, 0x2ea69b577f71b4dfULL},
    {"xmark_40960_1.xml", 41276, 0x85128165a9d5a0fdULL},
    {"xmark_51200_1.xml", 51319, 0x3976ac112a58e699ULL},
    {"xmark_65536_1.xml", 65804, 0x02e5442c2377d854ULL},
    {"xmark_81920_1.xml", 81960, 0xf9449aa9b78dacb5ULL},
    {"xmark_103424_1.xml", 103492, 0xab06db2b0e52b129ULL},
    {"xmark_131072_1.xml", 131363, 0xd2da883a2340cfa8ULL},
    {"xmark_164864_1.xml", 165010, 0x65ffde8da50f01afULL},
    {"xmark_207872_1.xml", 208116, 0xb7ce8fa0b897a661ULL},
    {"xmark_261120_1.xml", 261164, 0x312a753f1a539a57ULL},
    {"xmark_262144_1.xml", 262189, 0xa4f9dfe8f776b05fULL},
    {"xmark_329728_1.xml", 329848, 0x22f591042ff9b670ULL},
    {"xmark_415744_1.xml", 415882, 0x6aa4f22df9bb0d84ULL},
    {"xmark_524288_1.xml", 524491, 0x12b6f8409cb40a74ULL},
    {"xmark_660480_1.xml", 660615, 0x06304954d1d6d0f4ULL},
    {"xmark_831488_1.xml", 831671, 0xc73939bc4e0250c0ULL},
    {"xmark_1048576_1.xml", 1048758, 0x81fe55de84cc09efULL},
    {"xmark_16777216_1.xml", 16777396, 0xb549ae418532483aULL},
};

/// The serve rate ladder in requests per second, ascending. Calibrated on a
/// 4-CPU host so that the lowest rung passes the latency limit easily and
/// the highest fails it even when the host is quiet (capacity there measured
/// 380 to over 490 req/s on a quiet host, 250 to 360 on a busy one).
/// Latency is reported at kNominalRung, under half the quiet capacity, where
/// queueing is light enough to be steady.
inline constexpr double kServeRungsRps[] = {200, 250, 310, 380, 470, 580};
inline constexpr std::size_t kNominalRung = 0;

}  // namespace xqbench

#endif  // XQBENCH_FROZEN_H_
