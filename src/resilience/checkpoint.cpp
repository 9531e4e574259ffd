#include "resilience/checkpoint.hpp"

#include <istream>
#include <ostream>

#include "base/logging.hpp"

namespace plast::resilience
{

namespace
{
constexpr const char *kMagic = "plasticine_checkpoint";
/** Version 2: the memory system saves its burst slab (slot indices and
 *  free list) instead of an id-keyed burst map. */
constexpr uint32_t kVersion = 2;
} // namespace

void
writeCheckpoint(std::ostream &os, const FabricCheckpoint &cp)
{
    os << kMagic << " " << kVersion << "\n";
    os << "cycle " << cp.cycle << "\n";
    os << std::hex;
    os << "cfghash " << cp.cfgHash << "\n";
    os << "tape " << std::dec << cp.tape.size() << std::hex << "\n";
    // Eight words per line keeps the file diffable without bloating it.
    for (size_t i = 0; i < cp.tape.size(); ++i)
        os << cp.tape[i] << ((i % 8 == 7) ? "\n" : " ");
    if (cp.tape.size() % 8 != 0)
        os << "\n";
    os << std::dec << "end\n";
}

bool
readCheckpoint(std::istream &is, FabricCheckpoint &cp, std::string *err)
{
    auto fail = [&](const std::string &msg) {
        if (err)
            *err = msg;
        return false;
    };

    std::string magic;
    uint32_t version = 0;
    if (!(is >> magic >> version) || magic != kMagic)
        return fail("not a checkpoint file (bad magic)");
    if (version != kVersion)
        return fail(strfmt("unsupported checkpoint version %u", version));

    std::string key;
    if (!(is >> key >> cp.cycle) || key != "cycle")
        return fail("expected 'cycle <n>'");
    if (!(is >> key >> std::hex >> cp.cfgHash) || key != "cfghash")
        return fail("expected 'cfghash <hex>'");
    size_t words = 0;
    if (!(is >> key >> std::dec >> words) || key != "tape")
        return fail("expected 'tape <count>'");

    cp.tape.resize(words);
    is >> std::hex;
    for (size_t i = 0; i < words; ++i) {
        if (!(is >> cp.tape[i]))
            return fail(strfmt("truncated tape at word %zu of %zu", i,
                               words));
    }
    is >> std::dec;
    if (!(is >> key) || key != "end")
        return fail("missing 'end' trailer");
    return true;
}

} // namespace plast::resilience
