/**
 * @file
 * Growable power-of-two ring buffer with deque-like front/back
 * semantics. Streams and other bounded per-cycle queues use it instead
 * of std::deque: occupancy is bounded (stream backpressure), so after
 * warm-up a ring never allocates — std::deque's chunk churn was a
 * measurable slice of the per-cycle simulation cost.
 */

#ifndef PLAST_BASE_RING_HPP
#define PLAST_BASE_RING_HPP

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "base/stateio.hpp"

namespace plast
{

template <typename T>
class Ring
{
  public:
    bool empty() const { return count_ == 0; }
    size_t size() const { return count_; }

    T &front() { return buf_[head_]; }
    const T &front() const { return buf_[head_]; }
    T &back() { return buf_[wrap(head_ + count_ - 1)]; }
    const T &back() const { return buf_[wrap(head_ + count_ - 1)]; }

    /** i counts from the front, deque-style. */
    T &operator[](size_t i) { return buf_[wrap(head_ + i)]; }
    const T &operator[](size_t i) const { return buf_[wrap(head_ + i)]; }

    void
    push_back(const T &v)
    {
        reserveOne();
        buf_[wrap(head_ + count_)] = v;
        ++count_;
    }

    void
    push_back(T &&v)
    {
        reserveOne();
        buf_[wrap(head_ + count_)] = std::move(v);
        ++count_;
    }

    /** Append one slot and return it to be filled in place, saving a
     *  copy of large elements. The slot may still hold an earlier
     *  element's bytes: the caller assigns every field it reads. */
    T &
    push_slot()
    {
        reserveOne();
        return buf_[wrap(head_ + count_++)];
    }

    void
    pop_front()
    {
        head_ = wrap(head_ + 1);
        --count_;
    }

    void
    clear()
    {
        head_ = 0;
        count_ = 0;
    }

    /** Restore-path helper: size the ring, default-filled. */
    void
    resize(size_t n)
    {
        if (n > count_) {
            while (buf_.size() < roundUp(n))
                growStorage();
            for (size_t i = count_; i < n; ++i)
                buf_[wrap(head_ + i)] = T{};
        }
        count_ = n;
    }

    // Range-for support (front-to-back order).
    template <typename RingT, typename ValT>
    struct Iter
    {
        RingT *r;
        size_t i;
        ValT &operator*() const { return (*r)[i]; }
        Iter &
        operator++()
        {
            ++i;
            return *this;
        }
        bool operator!=(const Iter &o) const { return i != o.i; }
    };
    auto begin() { return Iter<Ring, T>{this, 0}; }
    auto end() { return Iter<Ring, T>{this, count_}; }
    auto begin() const { return Iter<const Ring, const T>{this, 0}; }
    auto end() const { return Iter<const Ring, const T>{this, count_}; }

  private:
    static size_t
    roundUp(size_t n)
    {
        size_t p = 8;
        while (p < n)
            p <<= 1;
        return p;
    }

    size_t wrap(size_t i) const { return i & (buf_.size() - 1); }

    void
    reserveOne()
    {
        if (buf_.empty() || count_ == buf_.size())
            growStorage();
    }

    /** Double the storage, unrolling the ring to the front. */
    void
    growStorage()
    {
        size_t ncap = buf_.empty() ? 8 : buf_.size() * 2;
        std::vector<T> nbuf(ncap);
        for (size_t i = 0; i < count_; ++i)
            nbuf[i] = std::move((*this)[i]);
        buf_ = std::move(nbuf);
        head_ = 0;
    }

    std::vector<T> buf_;
    size_t head_ = 0;
    size_t count_ = 0;
};

/** Tape format matches std::deque's: size, then elements in order. */
template <class Ar, class T>
void
io(Ar &ar, Ring<T> &r)
{
    uint64_t n = r.size();
    io(ar, n);
    if constexpr (!Ar::kSaving) {
        r.clear();
        r.resize(n);
    }
    for (size_t i = 0; i < n; ++i)
        io(ar, r[i]);
}

} // namespace plast

#endif // PLAST_BASE_RING_HPP
