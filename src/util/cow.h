#ifndef NF2_UTIL_COW_H_
#define NF2_UTIL_COW_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

namespace nf2 {

/// A reference-counted copy-on-write box. Copying a Cow is one atomic
/// increment and shares the value; Mutable() clones the value first
/// when another Cow still holds it, so a holder never observes a
/// change it did not make.
///
/// Thread safety: holders on different threads may copy and drop Cows
/// of one value concurrently (the count is atomic). Mutable() decides
/// "not shared" with an acquire load of the count, which pairs with the
/// release of every earlier holder's drop, so an in-place write never
/// races a former holder's read. A null Cow holds nothing; only
/// operator bool and get() may be called on it.
template <typename V>
class Cow {
 public:
  Cow() = default;
  explicit Cow(V value) : rep_(new Rep(std::move(value))) {}
  Cow(const Cow& other) : rep_(other.rep_) {
    if (rep_ != nullptr) rep_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  Cow(Cow&& other) noexcept : rep_(std::exchange(other.rep_, nullptr)) {}
  Cow& operator=(Cow other) noexcept {
    std::swap(rep_, other.rep_);
    return *this;
  }
  ~Cow() { Release(); }

  explicit operator bool() const { return rep_ != nullptr; }
  const V& operator*() const { return rep_->value; }
  const V* operator->() const { return &rep_->value; }
  const V* get() const { return rep_ == nullptr ? nullptr : &rep_->value; }

  /// The value for writing, cloned first when it is shared.
  V& Mutable() {
    if (rep_->refs.load(std::memory_order_acquire) != 1) {
      Rep* copy = new Rep(rep_->value);
      Release();
      rep_ = copy;
    }
    return rep_->value;
  }

 private:
  struct Rep {
    explicit Rep(V v) : value(std::move(v)) {}
    std::atomic<uint32_t> refs{1};
    V value;
  };

  void Release() {
    if (rep_ != nullptr &&
        rep_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete rep_;
    }
  }

  Rep* rep_ = nullptr;
};

/// A vector whose copies share storage: a radix tree of 32-wide Cow
/// nodes, so copying one is O(1) and a write after a copy clones only
/// the nodes on the path to the written slot (at most 32 slots per
/// level, log32(n) levels), never the whole vector. Leaf slots are
/// copied as T, so T should itself be cheap to copy (a Cow, a
/// shared_ptr, or a small type over shared representations, such as an
/// NfrTuple of ValueSets) — then a leaf clone never deep-copies what
/// its slots point to.
///
/// Dense like std::vector: elements [0, size()) always exist.
/// Reads through a const CowVector never write shared state, so a copy
/// handed to other threads stays readable while the original mutates.
template <typename T>
class CowVector {
 public:
  static constexpr unsigned kBits = 5;
  static constexpr size_t kWidth = size_t{1} << kBits;
  static constexpr size_t kMask = kWidth - 1;

  CowVector() = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const T& operator[](size_t i) const { return Leaf(i).slots[i & kMask]; }
  const T& back() const { return (*this)[size_ - 1]; }

  /// The slot at `i` for writing (clones the shared nodes on its path).
  T& Mutable(size_t i) {
    Node* n = &root_.Mutable();
    for (unsigned s = shift_; s > 0; s -= kBits) {
      n = &n->children[(i >> s) & kMask].Mutable();
    }
    return n->slots[i & kMask];
  }

  void push_back(T value) {
    if (!root_) root_ = Cow<Node>(Node{});
    if (size_ == (kWidth << shift_)) {
      // Full at this height: the old root becomes the first child.
      Node grown;
      grown.children.push_back(std::move(root_));
      root_ = Cow<Node>(std::move(grown));
      shift_ += kBits;
    }
    Node* n = &root_.Mutable();
    for (unsigned s = shift_; s > 0; s -= kBits) {
      size_t c = (size_ >> s) & kMask;
      if (c == n->children.size()) n->children.push_back(Cow<Node>(Node{}));
      n = &n->children[c].Mutable();
    }
    n->slots.push_back(std::move(value));
    ++size_;
  }

  void pop_back() {
    PopFrom(&root_.Mutable(), shift_);
    --size_;
    // Drop levels that have a single child left.
    while (shift_ > 0 && root_->children.size() == 1) {
      Cow<Node> only = root_->children[0];
      root_ = std::move(only);
      shift_ -= kBits;
    }
    if (size_ == 0) clear();
  }

  /// Grows with default-constructed elements or shrinks from the back.
  void resize(size_t n) {
    while (size_ < n) push_back(T());
    while (size_ > n) pop_back();
  }

  void clear() {
    root_ = Cow<Node>();
    size_ = 0;
    shift_ = 0;
  }

  /// Forward iteration; steps through one leaf's contiguous slots and
  /// descends the tree once per leaf.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    const_iterator() = default;
    const_iterator(const CowVector* v, size_t i) : v_(v), i_(i) {
      if (i_ < v_->size_) slot_ = &(*v_)[i_];
    }
    reference operator*() const { return *slot_; }
    pointer operator->() const { return slot_; }
    const_iterator& operator++() {
      ++i_;
      if (i_ >= v_->size_) {
        slot_ = nullptr;
      } else if ((i_ & kMask) == 0) {
        slot_ = &(*v_)[i_];
      } else {
        ++slot_;
      }
      return *this;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }

   private:
    const CowVector* v_ = nullptr;
    size_t i_ = 0;
    const T* slot_ = nullptr;
  };

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

  std::vector<T> ToVector() const { return std::vector<T>(begin(), end()); }

 private:
  // Inner nodes use `children`, leaves use `slots`.
  struct Node {
    std::vector<Cow<Node>> children;
    std::vector<T> slots;
  };

  const Node& Leaf(size_t i) const {
    const Node* n = root_.get();
    for (unsigned s = shift_; s > 0; s -= kBits) {
      n = n->children[(i >> s) & kMask].get();
    }
    return *n;
  }

  static void PopFrom(Node* n, unsigned shift) {
    if (shift == 0) {
      n->slots.pop_back();
      return;
    }
    Node* child = &n->children.back().Mutable();
    PopFrom(child, shift - kBits);
    if (child->children.empty() && child->slots.empty()) {
      n->children.pop_back();
    }
  }

  Cow<Node> root_;
  size_t size_ = 0;
  unsigned shift_ = 0;  // kBits * (levels above the leaves).
};

}  // namespace nf2

#endif  // NF2_UTIL_COW_H_
