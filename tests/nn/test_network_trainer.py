"""Tests for Sequential, Trainer, Module traversal and serialization."""

import numpy as np
import pytest

from repro.nn import (SGD, BatchNorm2D, ConstantLR, Conv2D, Dense,
                      GlobalAvgPool2D, Module, Parameter, ReLU6, Sequential,
                      Trainer, load_state_dict, state_dict)


def tiny_net(rng, in_ch=3, classes=4):
    return Sequential([
        Conv2D(in_ch, 6, kernel=3, rng=rng),
        BatchNorm2D(6),
        ReLU6(),
        GlobalAvgPool2D(),
        Dense(6, classes, rng=rng),
    ])


class TestModuleTraversal:
    def test_parameters_collected_recursively(self, rng):
        net = tiny_net(rng)
        # conv weight + bn gamma/beta + dense weight/bias
        assert len(net.parameters()) == 5

    def test_modules_iterates_all(self, rng):
        net = tiny_net(rng)
        kinds = [type(m).__name__ for m in net.modules()]
        assert kinds.count("Conv2D") == 1
        assert kinds.count("BatchNorm2D") == 1
        assert "Sequential" in kinds

    def test_set_training_propagates(self, rng):
        net = tiny_net(rng)
        net.set_training(True)
        assert all(m.training for m in net.modules())
        net.set_training(False)
        assert not any(m.training for m in net.modules())

    def test_zero_grad(self, rng):
        net = tiny_net(rng)
        for p in net.parameters():
            p.grad = np.ones_like(p.data)
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())

    def test_num_parameters(self, rng):
        net = tiny_net(rng)
        expected = sum(p.size for p in net.parameters())
        assert net.num_parameters() == expected

    def test_base_module_forward_raises(self):
        with pytest.raises(NotImplementedError):
            Module().forward(np.zeros(1))


class TestSequential:
    def test_forward_backward_shapes(self, rng):
        net = tiny_net(rng)
        net.set_training(True)
        x = rng.normal(size=(5, 8, 8, 3)).astype(np.float32)
        out = net.forward(x)
        assert out.shape == (5, 4)
        dx = net.backward(np.ones_like(out))
        assert dx.shape == x.shape

    def test_predict_batches_match_single(self, rng):
        net = tiny_net(rng)
        x = rng.normal(size=(7, 8, 8, 3)).astype(np.float32)
        full = net.predict(x, batch_size=7)
        batched = net.predict(x, batch_size=3)
        np.testing.assert_allclose(full, batched, rtol=1e-5)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            Sequential([])

    def test_indexing_and_len(self, rng):
        net = tiny_net(rng)
        assert len(net) == 5
        assert isinstance(net[0], Conv2D)

    def test_summary_mentions_totals(self, rng):
        text = tiny_net(rng).summary()
        assert "total params" in text


class TestTrainer:
    def test_loss_decreases_on_learnable_task(self, rng):
        net = tiny_net(rng, classes=2)
        x = rng.normal(size=(64, 8, 8, 3)).astype(np.float32)
        labels = (x.mean(axis=(1, 2, 3)) > 0).astype(np.int64)
        trainer = Trainer(net, SGD(net.parameters(), ConstantLR(0.05)))
        history = trainer.fit(x, labels, epochs=8, batch_size=16, rng=rng)
        assert history.train_loss[-1] < history.train_loss[0]
        assert history.train_accuracy[-1] > 0.6

    def test_augment_called(self, rng, tiny_dataset):
        calls = []

        def augment(x, rng_):
            calls.append(x.shape[0])
            return x

        net = tiny_net(rng, classes=10)
        trainer = Trainer(net, SGD(net.parameters(), ConstantLR(0.01)),
                          augment=augment)
        trainer.fit(tiny_dataset.x_train, tiny_dataset.y_train, epochs=1,
                    batch_size=32, rng=rng)
        assert sum(calls) == tiny_dataset.n_train

    def test_zero_epochs_is_noop(self, rng, tiny_dataset):
        net = tiny_net(rng, classes=10)
        trainer = Trainer(net, SGD(net.parameters(), ConstantLR(0.01)))
        history = trainer.fit(tiny_dataset.x_train, tiny_dataset.y_train,
                              epochs=0, rng=rng)
        assert history.epochs == 0

    def test_invalid_args(self, rng, tiny_dataset):
        net = tiny_net(rng, classes=10)
        trainer = Trainer(net, SGD(net.parameters(), ConstantLR(0.01)))
        with pytest.raises(ValueError):
            trainer.fit(tiny_dataset.x_train, tiny_dataset.y_train,
                        epochs=-1)
        with pytest.raises(ValueError):
            trainer.fit(tiny_dataset.x_train, tiny_dataset.y_train[:-1],
                        epochs=1)


class TestSerialization:
    def test_state_roundtrip(self, rng):
        net = tiny_net(rng)
        net.set_training(True)
        net.forward(rng.normal(size=(8, 8, 8, 3)).astype(np.float32))
        snapshot = state_dict(net)
        x = rng.normal(size=(2, 8, 8, 3)).astype(np.float32)
        net.set_training(False)
        before = net.forward(x)
        # perturb and restore
        for p in net.parameters():
            p.data += 1.0
        load_state_dict(net, snapshot)
        np.testing.assert_allclose(net.forward(x), before, rtol=1e-6)

    def test_running_stats_restored(self, rng):
        net = tiny_net(rng)
        bn = net[1]
        bn.running_mean[:] = 3.0
        snapshot = state_dict(net)
        bn.running_mean[:] = 0.0
        load_state_dict(net, snapshot)
        np.testing.assert_allclose(bn.running_mean, 3.0)

    def test_shape_mismatch_raises(self, rng):
        net = tiny_net(rng)
        other = tiny_net(rng, in_ch=4)
        with pytest.raises(ValueError):
            load_state_dict(other, state_dict(net))

    def test_missing_key_raises(self, rng):
        net = tiny_net(rng)
        snapshot = state_dict(net)
        del snapshot["param_0"]
        with pytest.raises(ValueError):
            load_state_dict(net, snapshot)


class TestParameter:
    def test_accumulate(self):
        p = Parameter(np.zeros(3))
        p.accumulate_grad(np.ones(3))
        p.accumulate_grad(np.ones(3))
        np.testing.assert_allclose(p.grad, 2.0)

    def test_repr(self):
        assert "shape" in repr(Parameter(np.zeros((2, 3)), name="w"))
