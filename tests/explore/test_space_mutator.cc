/**
 * @file
 * Seeded mutation of every committed wsrs-space-v1 spec (the ablation
 * sweeps under bench/specs, the example and the ledger's query space):
 * byte flips, truncations, and each number or string token replaced by
 * an edge value or by another token of the same document. Every mutant
 * must either parse, and then materialize and label its points, or fail
 * with a FatalError whose message names the document; any other
 * exception, a crash or a hang is a defect (the ASan lane runs this
 * through the `explore` label).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/log.h"
#include "src/common/rng.h"
#include "src/explore/space.h"

namespace wsrs::explore {
namespace {

/** Byte-flip and truncation mutants per spec. */
constexpr int kMutants = 300;

/** Points materialized from each end of a parsed mutant's space. */
constexpr std::uint64_t kPointsChecked = 64;

constexpr const char *kWhat = "mutant.json";

std::vector<std::string>
committedSpecs()
{
    const std::filesystem::path root = WSRS_SOURCE_DIR;
    std::vector<std::filesystem::path> paths = {
        root / "examples" / "design_space.json",
        root / "ledger" / "ledger_space.json"};
    for (const auto &e :
         std::filesystem::directory_iterator(root / "bench" / "specs"))
        if (e.path().extension() == ".json")
            paths.push_back(e.path());
    std::sort(paths.begin(), paths.end());
    std::vector<std::string> texts;
    for (const auto &p : paths) {
        std::ifstream is(p, std::ios::binary);
        std::ostringstream buf;
        buf << is.rdbuf();
        texts.push_back(buf.str());
    }
    return texts;
}

/** "" when @p text parses and its points materialize, or when it is
 *  refused by a FatalError that names the document. */
std::string
defectOf(const std::string &text)
{
    try {
        const SpaceSpec spec = parseSpaceSpec(text, kWhat);
        const std::uint64_t total = spec.totalPoints();
        std::vector<std::uint32_t> digits(spec.axes.size());
        for (std::uint64_t k = 0; k < std::min(total, 2 * kPointsChecked);
             ++k) {
            const std::uint64_t idx =
                k < kPointsChecked ? k : total - 1 - (k - kPointsChecked);
            decodePoint(spec, idx, digits.data());
            const ConfigPoint pt = materializePoint(spec, digits.data());
            if (!pt.feasible && pt.whyInfeasible == nullptr)
                return "infeasible point without a reason";
            (void)pointLabel(spec, digits.data());
            (void)pointConfigJson(spec, digits.data());
        }
    } catch (const FatalError &e) {
        if (std::string(e.what()).rfind(std::string(kWhat) + ": ", 0) != 0)
            return std::string("unlocated: ") + e.what();
    } catch (const std::exception &e) {
        return e.what();
    }
    return "";
}

/** [begin, end) of every number and every string token in @p text. */
void
tokens(const std::string &text,
       std::vector<std::pair<std::size_t, std::size_t>> &numbers,
       std::vector<std::pair<std::size_t, std::size_t>> &strings)
{
    for (std::size_t i = 0; i < text.size();) {
        if (text[i] == '"') {
            const std::size_t end = text.find('"', i + 1);
            strings.emplace_back(i, end + 1);
            i = end + 1;
        } else if (text[i] == '-' || (text[i] >= '0' && text[i] <= '9')) {
            std::size_t end = i + 1;
            while (end < text.size() &&
                   std::string_view("0123456789.eE+-").find(text[end]) !=
                       std::string_view::npos)
                ++end;
            numbers.emplace_back(i, end);
            i = end;
        } else {
            ++i;
        }
    }
}

TEST(SpaceMutator, EveryMutantParsesOrRaisesALocatedFatalError)
{
    const std::vector<std::string> specs = committedSpecs();
    ASSERT_GE(specs.size(), 10u);
    XorShiftRng rng(0x73706163);
    std::size_t mutants = 0;
    const auto check = [&](const std::string &label, const std::string &m) {
        ++mutants;
        EXPECT_EQ(defectOf(m), "") << label << ":\n" << m;
    };
    for (const std::string &spec : specs) {
        ASSERT_EQ(defectOf(spec), "") << spec;
        for (int i = 0; i < kMutants; ++i) {
            std::string m = spec;
            if (i % 2 == 0) {
                for (int flips = 1 + static_cast<int>(rng.below(3));
                     flips > 0; --flips)
                    m[rng.below(m.size())] ^=
                        static_cast<char>(1u << rng.below(8));
                check("bit flips " + std::to_string(i), m);
            } else {
                m.resize(rng.below(m.size()));
                check("truncated to " + std::to_string(m.size()), m);
            }
        }

        std::vector<std::pair<std::size_t, std::size_t>> numbers, strings;
        tokens(spec, numbers, strings);
        const auto replaced = [&](std::pair<std::size_t, std::size_t> at,
                                  const std::string &with) {
            return spec.substr(0, at.first) + with + spec.substr(at.second);
        };
        for (const auto &at : numbers)
            for (const char *edge :
                 {"0", "1", "-1", "2.5", "1e300", "4294967296", "\"4\"",
                  "null", "[]"})
                check("number -> " + std::string(edge), replaced(at, edge));
        for (const auto &at : strings) {
            for (const char *edge : {"\"\"", "7", "null", "{}"})
                check("string -> " + std::string(edge), replaced(at, edge));
            const auto &other = strings[rng.below(strings.size())];
            check("string swap",
                  replaced(at, spec.substr(other.first,
                                           other.second - other.first)));
        }
    }
    EXPECT_GT(mutants, specs.size() * kMutants);
}

} // namespace
} // namespace wsrs::explore
