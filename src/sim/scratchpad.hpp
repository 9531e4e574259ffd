/**
 * @file
 * The PMU scratchpad: multiple SRAM banks with configurable banking
 * modes (§3.2) and N-buffering. Storage holds real words so the fabric
 * computes real results; the banking mode determines both data layout
 * semantics and the bank-conflict cost of a vector access.
 */

#ifndef PLAST_SIM_SCRATCHPAD_HPP
#define PLAST_SIM_SCRATCHPAD_HPP

#include <map>
#include <string>
#include <vector>

#include "arch/config.hpp"
#include "base/ring.hpp"
#include "base/stateio.hpp"
#include "base/types.hpp"

namespace plast
{

class Scratchpad
{
  public:
    void configure(const ScratchCfg &cfg, uint32_t banks,
                   uint32_t capacityWords);

    uint32_t numBufs() const { return cfg_.numBufs; }
    uint32_t sizeWords() const { return cfg_.sizeWords; }
    BankingMode mode() const { return cfg_.mode; }

    /** Word read/write within buffer `buf`. Line-buffer mode wraps. An
     *  access outside the buffers is an address fault and is dropped
     *  (a read returns 0). */
    Word read(uint32_t buf, uint32_t addr) const;
    void write(uint32_t buf, uint32_t addr, Word w);
    /** Latch out-of-range accesses here instead of panicking. */
    void bindAddressFault(std::string *latch) { addrFault_ = latch; }

    /**
     * Cycles a vector access with the given per-lane word addresses
     * occupies the banks: the maximum number of lanes mapping to one
     * bank (1 in duplication mode — every bank holds a copy).
     */
    uint32_t conflictCycles(const std::vector<uint32_t> &addrs) const;

    // ---- Specialized-path raw row access -----------------------------
    //
    // The PMU fast path (PmuPortPlan::fastAccess) reads/writes rows of
    // the backing array directly. A row is only handed out when the
    // per-word read()/write() semantics are provably inert for every
    // word in the span: in range, no wrap mid-span, and no pending
    // poison that a read would scrub or a write would clear. Otherwise
    // nullptr sends the caller down the exact per-word path.

    /** Contiguous `span` words starting at (wrapped) `addr`, or
     *  nullptr when read() side effects could differ. */
    const Word *
    rawRow(uint32_t buf, uint32_t addr, uint32_t span) const
    {
        if (ecc_ && !poison_.empty())
            return nullptr;
        return rowPtr(buf, addr, span);
    }

    /** Mutable row; writes clear check bits, so any pending poison
     *  forces the per-word path. */
    Word *
    rawRowMut(uint32_t buf, uint32_t addr, uint32_t span)
    {
        if (!poison_.empty())
            return nullptr;
        return const_cast<Word *>(rowPtr(buf, addr, span));
    }

    // FIFO-mode operations (vector granularity).
    void fifoPush(const Vec &v);
    bool fifoCanPop() const { return !fifo_.empty(); }
    Vec fifoPop();
    size_t fifoSize() const { return fifo_.size(); }

    // ---- SECDED ECC model & fault injection --------------------------
    //
    // Check bits are not stored; instead each upset is tracked in a
    // poison ledger keyed by flat word address. With ECC enabled a
    // single-bit upset is corrected (and the word scrubbed) on the next
    // read, while a multi-bit upset latches `eccUncorrectable`. With
    // ECC disabled the stored word is corrupted in place — the upset
    // propagates into results (potential silent data corruption).

    void enableEcc(bool on) { ecc_ = on; }

    /**
     * Flip `bits` adjacent bits (starting at `bitPos`, wrapping within
     * the word) of buffer `buf`, word `addr` at cycle `now`. Returns
     * false when the location is not injectable (FIFO mode or out of
     * range).
     */
    bool injectFault(uint32_t buf, uint32_t addr, uint32_t bits,
                     uint32_t bitPos, Cycles now);

    struct EccStats
    {
        uint64_t corrected = 0;      ///< single-bit upsets scrubbed
        uint64_t uncorrectable = 0;  ///< multi-bit upsets detected

        template <class Ar>
        void
        serializeState(Ar &ar)
        {
            io(ar, corrected);
            io(ar, uncorrectable);
        }
    };

    const EccStats &eccStats() const { return eccStats_; }
    /** A detected-uncorrectable error is pending (ECC on, >=2 bits). */
    bool eccUncorrectable() const { return uncorrectable_; }
    /** Cycle the earliest still-unrecovered upset was injected. */
    Cycles eccCorruptedAt() const { return corruptedAt_; }
    void
    clearEccError()
    {
        uncorrectable_ = false;
        corruptedAt_ = ~Cycles{0};
    }

    template <class Ar>
    void
    serializeState(Ar &ar)
    {
        io(ar, data_);
        io(ar, fifo_);
        io(ar, poison_);
        io(ar, eccStats_);
        io(ar, uncorrectable_);
        io(ar, corruptedAt_);
    }

  private:
    const Word *
    rowPtr(uint32_t buf, uint32_t addr, uint32_t span) const
    {
        // Per-word callers compute addr + l in uint32, wrapping at
        // 2^32; a row must not paper over that wrap.
        if (addr > ~uint32_t{0} - span)
            return nullptr;
        addr = wrap(addr);
        if (buf >= cfg_.numBufs ||
            static_cast<uint64_t>(addr) + span > cfg_.sizeWords)
            return nullptr;
        return &data_[static_cast<size_t>(buf) * cfg_.sizeWords + addr];
    }

    void outOfRange(const char *op, uint32_t buf, uint32_t addr) const;

    uint32_t
    wrap(uint32_t addr) const
    {
        return cfg_.mode == BankingMode::kLineBuffer && cfg_.sizeWords > 0
                   ? addr % cfg_.sizeWords
                   : addr;
    }

    struct Poison
    {
        uint32_t bits = 0;        ///< number of upset bits in the word
        Cycles injectedAt = 0;

        template <class Ar>
        void
        serializeState(Ar &ar)
        {
            io(ar, bits);
            io(ar, injectedAt);
        }
    };

    ScratchCfg cfg_;
    uint32_t banks_ = 16;
    std::vector<Word> data_;
    Ring<Vec> fifo_;
    bool ecc_ = false;
    // Mutable: reads perform ECC decode (scrub / detect) as a side
    // effect, and read() is const for normal datapath callers.
    mutable std::map<uint32_t, Poison> poison_;
    mutable EccStats eccStats_;
    mutable bool uncorrectable_ = false;
    mutable Cycles corruptedAt_ = ~Cycles{0};
    // Per-call workspace for conflictCycles(): reused, never state.
    mutable std::vector<uint32_t> perBankScratch_;
    std::string *addrFault_ = nullptr;
};

} // namespace plast

#endif // PLAST_SIM_SCRATCHPAD_HPP
