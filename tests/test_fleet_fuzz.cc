/**
 * @file
 * Fuzzed properties of the fleet scheduler over two seeded scenario
 * families:
 *
 *  - mixed: 100 random (arrival trace, profile set, fleet config)
 *    triples of varied shape;
 *  - tie-heavy: 60 scenarios with equal service times, equal HOT
 *    residue and arrival times rounded down to coarse steps, so many
 *    instances share a busyUntil and the warm-pick and LRU-victim tie
 *    rules decide the outcome, with up to a few thousand arrivals.
 *
 * Every scenario is checked against the invariants the scheduler must
 * hold regardless of shape — every arrival completes or is rejected
 * exactly once, every completion is either a cold start or a warm hit,
 * node RSS never exceeds the memory budget, percentiles are ordered,
 * and a repeat run is bit-identical down to the fleet-state digest —
 * and its digest and percentiles are compared with a pinned table, so
 * any change to the event loop must reproduce the complete outcome of
 * every scenario.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "fleet/arrivals.h"
#include "fleet/fleet.h"
#include "sim/rng.h"

namespace memento {
namespace {

/** One fleet-stage input: config, profiles and time-ordered arrivals. */
struct Scenario
{
    MachineConfig cfg;
    std::vector<FleetProfile> profiles;
    std::vector<Arrival> arrivals;
};

/** Random profile set: 1-4 workloads with varied footprints. */
std::vector<FleetProfile>
fuzzProfiles(Rng &rng)
{
    const std::size_t n = 1 + rng.nextBelow(4);
    std::vector<FleetProfile> profiles;
    for (std::size_t i = 0; i < n; ++i) {
        FleetProfile p;
        p.id = "fuzz" + std::to_string(i);
        p.serviceCycles = rng.nextRange(100, 2'000'000);
        p.pages = rng.nextRange(1, 2000);
        p.hotValidEntries = rng.nextBelow(64);
        profiles.push_back(p);
    }
    return profiles;
}

/** Random fleet shape: cores, arrival process, keep-alive, budget. */
MachineConfig
fuzzConfig(Rng &rng, std::uint64_t seed)
{
    static const char *kKinds[] = {"poisson", "bursty", "diurnal"};
    MachineConfig cfg = defaultConfig();
    cfg.fleet.seed = seed;
    cfg.fleet.cores = static_cast<unsigned>(rng.nextRange(1, 8));
    cfg.fleet.invocations = rng.nextRange(50, 400);
    cfg.fleet.ratePerSec =
        static_cast<double>(rng.nextRange(100, 50'000));
    cfg.fleet.arrival = kKinds[rng.nextBelow(3)];
    cfg.fleet.keepAliveMs =
        rng.nextBool(0.3) ? 0.0
                          : static_cast<double>(rng.nextRange(1, 50));
    cfg.fleet.memoryBudgetPages =
        rng.nextBool(0.4) ? 0 : rng.nextRange(500, 20'000);
    return cfg;
}

/** Mixed family: varied service times, footprints and shapes. */
Scenario
mixedScenario(std::uint64_t seed)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull);
    Scenario s;
    s.cfg = fuzzConfig(rng, seed);
    s.profiles = fuzzProfiles(rng);
    s.arrivals = generateArrivals(s.cfg, s.profiles.size());
    return s;
}

/**
 * Tie-heavy family: every profile has the same service time and HOT
 * residue, and arrivals are rounded down to a coarse step (0.1-5 ms),
 * so batches of arrivals share a timestamp and instances dispatched
 * together finish together. The budget holds only a few instances.
 */
Scenario
tieHeavyScenario(std::uint64_t seed)
{
    static const char *kKinds[] = {"poisson", "bursty", "diurnal"};
    Rng rng(seed * 0xd1b54a32d192ed03ull + 0x7f4a7c15ull);
    Scenario s;
    MachineConfig &cfg = s.cfg;
    cfg = defaultConfig();
    cfg.fleet.seed = 1000 + seed;
    cfg.fleet.cores = static_cast<unsigned>(rng.nextRange(1, 8));
    cfg.fleet.invocations = rng.nextRange(500, 4000);
    cfg.fleet.ratePerSec =
        static_cast<double>(rng.nextRange(500, 20'000));
    cfg.fleet.arrival = kKinds[rng.nextBelow(3)];
    cfg.fleet.keepAliveMs =
        rng.nextBool(0.2) ? 0.0
                          : static_cast<double>(rng.nextRange(1, 20));

    const std::size_t n = 1 + rng.nextBelow(6);
    const Cycles service = rng.nextRange(1'000, 3'000'000);
    const std::uint64_t hot = rng.nextBelow(64);
    const bool equal_pages = rng.nextBool(0.5);
    const std::uint64_t pages = rng.nextRange(10, 500);
    for (std::size_t i = 0; i < n; ++i) {
        FleetProfile p;
        p.id = "tie" + std::to_string(i);
        p.serviceCycles = service;
        p.pages = equal_pages ? pages : rng.nextRange(10, 500);
        p.hotValidEntries = hot;
        s.profiles.push_back(p);
    }
    cfg.fleet.memoryBudgetPages =
        rng.nextBool(0.25) ? 0 : rng.nextRange(2, 12) * 500;

    const Cycles step = cfg.msToCycles(
        static_cast<double>(rng.nextRange(1, 50)) / 10.0);
    s.arrivals = generateArrivals(cfg, s.profiles.size());
    for (Arrival &a : s.arrivals)
        a.atCycles -= a.atCycles % step; // Keeps the trace time-ordered.
    return s;
}

/**
 * One scenario's pinned outcome: the digest folds every arrival's
 * latency and every counter, but not the percentiles.
 */
struct Pinned
{
    std::uint64_t digest;
    Cycles p50;
    Cycles p99;
    Cycles p999;
};

/** Outcomes of mixedScenario(1..100), in seed order. */
constexpr Pinned kMixedPinned[] = {
    {0x668f22746c60e35bull, 668370378, 1355929554, 1365127947},
    {0xe8650f841a5417c2ull, 86472197, 160764727, 162383119},
    {0x9cc90b02568ee6b8ull, 14663281, 20102750, 20102750},
    {0x779102f87bff3234ull, 11600508, 23253558, 24303900},
    {0x8c5926dfab6f07cfull, 51298272, 93335304, 93638142},
    {0xa3ad2c8181372762ull, 25396486, 45975606, 45975606},
    {0xbd1a62122fc9c383ull, 6493393, 7718384, 7718384},
    {0xd86749223b8f107bull, 113908232, 223607926, 223607926},
    {0x77c99fe8290c8552ull, 119413876, 233800587, 236597873},
    {0x4345fb340c871901ull, 5038973, 9549496, 9826935},
    {0x0de113f238ed5a03ull, 5820253, 10848598, 10848598},
    {0x1f846157d92a6fadull, 5381383, 5381383, 5381383},
    {0x4d7ce2f99e37eca7ull, 61696413, 115081522, 116231020},
    {0x28e90f040f80168cull, 16261068, 25731124, 25731124},
    {0x87b8a6d14cb8d69aull, 899489444, 1795328341, 1801079462},
    {0x1fb63a500e3639a2ull, 16906439, 26513817, 26513817},
    {0xccd65567537fab98ull, 166454400, 331130655, 332443558},
    {0xf7b735b861c9db89ull, 225383460, 440063519, 440162283},
    {0x915106b273830e2bull, 20987690, 35541834, 35934793},
    {0x52cf924e94fa9d57ull, 5578732, 10398711, 10398711},
    {0xe9a68d0d0a9c8303ull, 77822, 4581422, 4581422},
    {0xf2bb4821b80ace47ull, 174854189, 342025566, 346315582},
    {0xc5d7561246e9a4d9ull, 4318984, 9318749, 11610255},
    {0xf8fc1be7cba457eaull, 142259148, 285864689, 285864689},
    {0xea4d0f82663aa635ull, 53412454, 98483062, 98483062},
    {0x2836b32ea0ab5461ull, 286174087, 565006452, 569987402},
    {0xc8e406ccc3355cfbull, 99331610, 197140901, 197461576},
    {0x63a86a7cf05d11eaull, 30084660, 49287651, 49287651},
    {0x4248965b60d5fbcaull, 169269623, 316772242, 320287672},
    {0x589d87d97f41a655ull, 171388425, 345972342, 347820943},
    {0x3071bb6c5412ce0full, 5449266, 5449266, 5449266},
    {0x9d0643e2412efe39ull, 16422274, 24359615, 24359615},
    {0xd1e0593718426cf2ull, 64664678, 119039906, 121215390},
    {0x18bdc6c1a52d8080ull, 23228257, 60685176, 60750097},
    {0x5b32d082b4f5034aull, 256339436, 512895458, 518499071},
    {0x56f4158190215e2dull, 1010922, 5821384, 5821500},
    {0x6f9c0cada70a091dull, 214999709, 434399243, 439266982},
    {0x88d7754f41170be0ull, 8106811, 17049853, 17049853},
    {0x26fb3dfd6bea24bfull, 5442178, 6349826, 6349826},
    {0xc5822f74bad11d56ull, 35917755, 43199737, 43199737},
    {0xfed685e8805506e2ull, 188680577, 369906609, 374788960},
    {0x35c5e79fc69ef4e3ull, 42394569, 103297151, 104006652},
    {0xa3caac883c633607ull, 106175357, 195562944, 198383032},
    {0xc033f3583b385093ull, 98656795, 193740598, 193740598},
    {0xe3b4e9eec21a086full, 150828687, 216562798, 218460758},
    {0x820f074c0c3f9bcfull, 100269559, 193344760, 193947067},
    {0xb7c38b061cfe94a0ull, 11722741, 22167571, 22167571},
    {0xc205b1f349f19ba1ull, 53462265, 118239359, 118924937},
    {0x9925eee5d4e38943ull, 29657085, 35991290, 35991290},
    {0x567dd7139db175bbull, 83801331, 173660836, 176740627},
    {0x49c89edfbaf60dedull, 5440350, 5440350, 5440350},
    {0x64d8c7eba9a1593full, 501534356, 990703587, 996525715},
    {0x7e5f55c6fcad16a6ull, 1888617, 6491663, 6491663},
    {0xd880d6e72c2ad19full, 27057707, 38986066, 38986066},
    {0x1df7f6bb97c98294ull, 56448228, 91677074, 91677074},
    {0xcbabfa93952a6cbfull, 6235145, 6235193, 6235193},
    {0x5731c59a98b75665ull, 24183015, 35600198, 35600198},
    {0x326611059fdacacdull, 1845347, 6348961, 6348961},
    {0xed0e526ce1adcc7aull, 416626671, 824967444, 829221198},
    {0x706851279ce7f220ull, 99582897, 193623591, 194320511},
    {0x84a48e53b902f880ull, 167510461, 357446039, 357802265},
    {0x0f22ea3e9280eca8ull, 3137200, 18696349, 19137919},
    {0xe462f61b40c37f18ull, 292048087, 568890221, 573989727},
    {0x00a8138a56249cdeull, 699338104, 1394334091, 1404906253},
    {0xebf880005dbec00aull, 1870296, 6373896, 6373896},
    {0x0d70f3f13a2fcb4cull, 6147958, 9192713, 9192713},
    {0xa9a1c5155925c6acull, 1843910, 6643182, 7455587},
    {0x50d0c23cb18f7820ull, 130844312, 258271200, 258360274},
    {0xc3454f689ad17864ull, 10555000, 20988271, 20988271},
    {0xe7073ce6dc58197eull, 5426733, 6225463, 6225463},
    {0x27e55d07c8629c12ull, 11133823, 16663438, 16663438},
    {0x005a62678acb626aull, 35963666, 65495334, 66248496},
    {0x41e9511ae8f64f02ull, 4881877, 6396703, 6396703},
    {0xa01a38836f172282ull, 7551648, 12727419, 12727419},
    {0xf0bb20217f50e0bdull, 36763200, 58972888, 59262819},
    {0xbb7565eae6334896ull, 144689363, 277872913, 280112203},
    {0xbc8327b19b4310aaull, 122043699, 239984346, 242059924},
    {0x5d1f81b0e0f96426ull, 237073789, 480698940, 484974103},
    {0x3a102d155b4afcb2ull, 22003924, 43663305, 45935462},
    {0x6ff2cb0f5a22e316ull, 207995096, 402050389, 402050389},
    {0xc4c46885bf9112d0ull, 11959571, 16365161, 16365161},
    {0x4fcf9505fc2a4dcdull, 75314409, 150141391, 150159653},
    {0x5ec56120b682170aull, 26967341, 33619145, 33619145},
    {0x64c09820eb6283a4ull, 141438665, 276363857, 279760423},
    {0xfde6596c75858527ull, 75067685, 124667056, 124667056},
    {0x99a52a520e9497d0ull, 9937456, 23728498, 23947019},
    {0x4239b4ad917759cfull, 15762308, 26459525, 26459525},
    {0x7369ee2462c02ad4ull, 2562763, 24422372, 24422372},
    {0xdb8dcf978f39f547ull, 5803552, 13147254, 13147254},
    {0xdfaedafe80272641ull, 76915971, 118039924, 118039924},
    {0x6d0d0e7087fd95c6ull, 95489957, 181680198, 182142593},
    {0x2199849903b2b34full, 0, 0, 0},
    {0xace42d0ec6f3ef41ull, 5258018, 10259666, 10259666},
    {0x0b7d09784f5fd21cull, 795433, 5770433, 5779909},
    {0x5a82436ae6381673ull, 13849338, 17287859, 17287859},
    {0x27b4722ca495b36full, 149789726, 292741721, 294560477},
    {0x60d56fb24e07a1f8ull, 1717333, 6220933, 6220933},
    {0xf7bbd898ee40cb06ull, 6129932, 6129932, 6129932},
    {0x336d58e4a7a8171bull, 162665616, 319401743, 324267291},
    {0xe9f17f0e7dc57039ull, 6393987, 9622730, 10264511},
};

/** Outcomes of tieHeavyScenario(1..60), in seed order. */
constexpr Pinned kTieHeavyPinned[] = {
    {0x6449d89a2907d5a9ull, 11168876, 22395704, 24705430},
    {0x317d888ed2bffa36ull, 426299, 5177255, 8659810},
    {0xfd58d1734fb3a92bull, 14477837, 24652690, 30815883},
    {0x35cd33c16edbb1f6ull, 2527022, 7030664, 9561328},
    {0x2eff45028c45129eull, 33191254, 45875214, 48923974},
    {0xdbbfa0feac73d359ull, 5638970, 5638970, 5638970},
    {0x385f40901c6cc1cbull, 6557358, 13785786, 13785786},
    {0xbdc6672c1d8bf992ull, 13398518, 19274342, 19482766},
    {0x4c5423e4e78972b6ull, 2551238089, 5006967389, 5054391144},
    {0x4ab792ccdaef3ff1ull, 996034472, 1930419914, 1941894206},
    {0x64af3a9e10e6b086ull, 732217, 7432124, 9164691},
    {0x0365342cea143817ull, 25233651, 50197993, 56208884},
    {0x906faca40f1393c4ull, 576602962, 1133338673, 1146838673},
    {0xaa10749fbb7d9e88ull, 36452868, 54648256, 61479300},
    {0x60513edeabdabf4aull, 5527609, 5527609, 5527609},
    {0xe76b36dc54d040a2ull, 746482, 5996670, 10496670},
    {0xc431e71a5f782a03ull, 142356647, 180296604, 184813363},
    {0x883d61892d765a2full, 2604632, 2604632, 7108232},
    {0xb0c59b838b83ba69ull, 210115024, 512146620, 522005329},
    {0x4b85932dc05257c3ull, 3696284840, 7257022768, 7329491584},
    {0xa355bfa2de8c67c3ull, 3847940, 44065450, 52683635},
    {0x8c0f176ca147d048ull, 4003485948, 8221372268, 8284677228},
    {0xc94781478dbf6130ull, 280824, 9280704, 9561648},
    {0xa982e23294e7100bull, 94178071, 129073621, 134047811},
    {0x8cee9a99cbb9bf47ull, 25018605, 28952150, 28952150},
    {0x1db28d91d8d4692full, 3130010, 12133712, 13700568},
    {0xdc6ecd6af3cdf3cbull, 3746894, 25493670, 31867117},
    {0x32dc8cce57eb73bbull, 4935100, 10301660, 10337460},
    {0xab77961936ec2f37ull, 2206370, 6709970, 13420042},
    {0x1fa31afa82c245d8ull, 325638, 29090376, 38093976},
    {0xb14832567720ab86ull, 712676520, 1746011550, 1753318575},
    {0xb31073274e526b5bull, 4650310, 20242982, 26990672},
    {0xdbe7687a5c408cfaull, 1147351, 9104127, 12704231},
    {0xdd2e599393220210ull, 2872257628, 5580055400, 5627626129},
    {0x8789fe929e3d3121ull, 354656, 12438216, 18477686},
    {0xa0ce0cea962d7f56ull, 55281512, 85157774, 91738714},
    {0x60e66f8f0d6fb58eull, 480504, 5265592, 9562928},
    {0x761744a7f635f112ull, 6110633, 14517496, 18213109},
    {0xe0ab32e9a4687179ull, 12926840, 19390395, 19390395},
    {0x657e41d7d899a02bull, 2009538, 6513262, 6513262},
    {0xc50a47fd1cc7df50ull, 66007684, 80350252, 80350252},
    {0xb90d81221844c958ull, 910674, 5915560, 9958370},
    {0x85c8aab8df6a7b0bull, 114996, 4559279, 4674313},
    {0x00bfd55974f1e1aeull, 274597522, 472559270, 481640786},
    {0x2376871c6bfe164aull, 286565323, 520785360, 524458034},
    {0x5c401ed76fe03a7dull, 12273394, 16845700, 17729414},
    {0x428f60fbfe7efbddull, 5178448, 11612762, 15446044},
    {0x093f60fe46ae3068ull, 24803616, 52596504, 67145235},
    {0x132a70d6e794950cull, 31226162, 38402212, 39346880},
    {0xcbd84e6c178a0ed9ull, 1475157, 5978757, 5978757},
    {0x691be05ca6d55b8bull, 10448255, 18792942, 21002024},
    {0xd19f5f53cce8a7b2ull, 73290934, 92551198, 92908594},
    {0xd2a25c54d7722838ull, 3249976, 22338118, 27922660},
    {0x3e1d0172defb1565ull, 28813934, 38020766, 43883338},
    {0xbee29a58c0332c6bull, 62982229, 92874850, 98125572},
    {0x98c845e76944a4f0ull, 2557104, 11560768, 12837488},
    {0x1d553d7acfb072a7ull, 663037199, 1239096144, 1254074474},
    {0xc59eb7253752ddd6ull, 6660022, 10283884, 11783884},
    {0x266c517d435a4560ull, 89223888, 151220000, 151234436},
    {0x076a100b1c656ca6ull, 65024, 9068624, 9068624},
};

/** The scheduler invariants, plus repeat-run bit-identity. */
void
checkInvariants(const Scenario &s, const FleetMetrics &m)
{
    const MachineConfig &cfg = s.cfg;
    // Every arrival is accounted for exactly once.
    EXPECT_EQ(m.arrivals, s.arrivals.size());
    EXPECT_EQ(m.completed + m.rejected, m.arrivals);
    // Every completion is a cold start or a warm hit.
    EXPECT_EQ(m.coldStarts + m.warmHits, m.completed);
    // An instance expires or is evicted at most once, and only
    // after it was cold-started.
    EXPECT_LE(m.evictions + m.expirations, m.coldStarts);
    // The pressure policy is a hard cap.
    if (cfg.fleet.memoryBudgetPages != 0) {
        EXPECT_LE(m.peakRssPages, cfg.fleet.memoryBudgetPages);
    }
    // Percentiles are nearest ranks of one latency vector.
    if (m.completed != 0) {
        EXPECT_LE(m.p50Cycles, m.p99Cycles);
        EXPECT_LE(m.p99Cycles, m.p999Cycles);
        EXPECT_LE(m.p999Cycles, m.makespanCycles);
        EXPECT_GT(m.peakRssPages, 0u);
    } else {
        EXPECT_EQ(m.p999Cycles, 0u);
    }
    // Residency area is bounded by (live instances) x makespan;
    // live instances never exceed completed cold starts.
    if (m.makespanCycles != 0) {
        EXPECT_LE(m.residencyCycleArea,
                  static_cast<std::uint64_t>(m.coldStarts) *
                      m.makespanCycles);
    }

    // Determinism: the same inputs reproduce every field, including
    // the digest.
    const FleetMetrics again = simulateFleet(s.arrivals, s.profiles, cfg);
    EXPECT_TRUE(m == again);
    EXPECT_NE(m.digest, 0u);
}

TEST(FleetFuzz, ConservationInvariantsHoldOverRandomTraces)
{
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
        const Scenario s = mixedScenario(seed);
        ASSERT_EQ(s.arrivals.size(), s.cfg.fleet.invocations)
            << "seed " << seed;
        SCOPED_TRACE("seed " + std::to_string(seed) + " arrival " +
                     s.cfg.fleet.arrival + " cores " +
                     std::to_string(s.cfg.fleet.cores) + " budget " +
                     std::to_string(s.cfg.fleet.memoryBudgetPages));
        checkInvariants(s, simulateFleet(s.arrivals, s.profiles, s.cfg));
    }
}

TEST(FleetFuzz, ConservationInvariantsHoldOverTieHeavyTraces)
{
    // The family is only worth pinning if it exercises the tie rules:
    // arrivals must collide in time and the budget must force
    // evictions.
    std::uint64_t shared = 0;
    std::uint64_t evictions = 0;
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        const Scenario s = tieHeavyScenario(seed);
        SCOPED_TRACE("tie-heavy seed " + std::to_string(seed));
        for (std::size_t i = 1; i < s.arrivals.size(); ++i)
            shared += s.arrivals[i].atCycles == s.arrivals[i - 1].atCycles;
        const FleetMetrics m = simulateFleet(s.arrivals, s.profiles, s.cfg);
        evictions += m.evictions;
        checkInvariants(s, m);
    }
    EXPECT_GT(shared, 10'000u);
    EXPECT_GT(evictions, 1'000u);
}

void
expectPinned(const Scenario &s, const Pinned &pin)
{
    const FleetMetrics m = simulateFleet(s.arrivals, s.profiles, s.cfg);
    EXPECT_EQ(m.digest, pin.digest);
    EXPECT_EQ(m.p50Cycles, pin.p50);
    EXPECT_EQ(m.p99Cycles, pin.p99);
    EXPECT_EQ(m.p999Cycles, pin.p999);
}

TEST(FleetFuzz, OutcomesMatchPinnedTable)
{
    ASSERT_EQ(std::size(kMixedPinned), 100u);
    ASSERT_EQ(std::size(kTieHeavyPinned), 60u);
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
        SCOPED_TRACE("mixed seed " + std::to_string(seed));
        expectPinned(mixedScenario(seed), kMixedPinned[seed - 1]);
    }
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        SCOPED_TRACE("tie-heavy seed " + std::to_string(seed));
        expectPinned(tieHeavyScenario(seed), kTieHeavyPinned[seed - 1]);
    }
}

} // namespace
} // namespace memento
